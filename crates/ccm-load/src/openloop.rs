//! The open-loop driver: inject requests at the instants an
//! [`ArrivalProcess`] schedules, regardless of completions.
//!
//! The closed-loop driver ([`crate::run`]) self-throttles: N clients can
//! never offer more load than the cluster absorbs, so overload is
//! invisible by construction. Here the arrival schedule is fixed up front
//! (a pure function of the spec's seed) and the driver holds a **bounded
//! in-flight table**: an arrival that finds the table full is *shed* —
//! counted on `ccm_load_shed_total`, never silently dropped and never
//! queued without bound. Goodput, offered-vs-achieved load, and the
//! latency-vs-offered-load curve are exactly the observables this makes
//! meaningful.
//!
//! Two modes, one schedule:
//!
//! * **Real time** ([`OpenLoopSpec::virtual_time`] `false`): a dispatcher
//!   paces the schedule against the wall clock and a worker pool serves
//!   admitted requests; latency is measured from the *scheduled arrival
//!   instant*, so queueing delay is part of the number (the hockey-stick
//!   curve under overload).
//! * **Virtual time** (`true`): admission is simulated as an M/D/c/c loss
//!   system — deterministic per-file service times, `max_inflight`
//!   servers, no queue — and the admitted subsequence is then replayed
//!   in-order against the live cluster. Every count, shed decision, and
//!   payload digest is a pure function of the seed: bit-identical across
//!   reruns and across channel/TCP backends
//!   ([`OpenLoopReport::deterministic_json`]).
//!
//! Both modes verify every served byte against the backing store and fold
//! an order-insensitive digest, like every other driver in this crate.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicI64, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

use ccm_arrivals::{
    Arrival, ArrivalProcess, ChurnProcess, Hotspot, PoissonProcess, ScheduledProcess, NS_PER_SEC,
};
use ccm_core::block::blocks_of_file;
use ccm_core::{CacheStats, FileId as CoreFileId, NodeId, ReplacementPolicy};
use ccm_obs::{Counter, Gauge, Histogram, LatencySummary, Registry, Snapshot};
use ccm_rt::store::read_file_direct;
use ccm_rt::{BlockStore, Catalog, Middleware, RtConfig, SyntheticStore, Transport};
use ccm_traces::{FileId as TraceFileId, Preset, Workload};

use crate::common::{fnv1a, scrape_ok, Cluster, FNV_OFFSET};

/// The families a mid-run scrape must find: the open-loop driver's next
/// to the runtime's.
const SCRAPE_FAMILIES: [&str; 4] = [
    "ccm_load_shed_total",
    "ccm_load_offered_rps",
    "ccm_load_requests_total",
    "ccm_rt_reads_total",
];

/// One request's digest: FNV over its window sequence number then its
/// payload. XORing these per-request values gives an order-insensitive
/// window digest that still cannot cancel between repeats of one file.
fn req_digest(seq: u64, payload: &[u8]) -> u64 {
    let mut d = FNV_OFFSET;
    fnv1a(&mut d, &seq.to_le_bytes());
    fnv1a(&mut d, payload);
    d
}

/// Which arrival process drives the run — the spec-level, plain-data echo
/// of the `ccm-arrivals` constructors.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum OpenLoopProcess {
    /// Homogeneous Poisson at a constant rate — the steady-state cell.
    Poisson {
        /// Offered rate, requests/sec.
        rate_rps: f64,
    },
    /// A rate step onto the workload's *coldest* head file: `base_rps`
    /// until `start_ns`, then `peak_rps` for `duration_ns` with
    /// `crowd_fraction` of the window's arrivals redirected to the target.
    FlashCrowd {
        /// Rate outside the crowd window.
        base_rps: f64,
        /// Rate inside the crowd window.
        peak_rps: f64,
        /// Window start, virtual ns after the measurement origin.
        start_ns: u64,
        /// Window length, virtual ns.
        duration_ns: u64,
        /// Fraction of window arrivals redirected onto the cold target.
        crowd_fraction: f64,
    },
    /// A sampled sinusoid between `trough_rps` and `peak_rps` cycling with
    /// the given period.
    Diurnal {
        /// Rate at the period edges.
        trough_rps: f64,
        /// Rate mid-period.
        peak_rps: f64,
        /// Cycle length, virtual ns.
        period_ns: u64,
        /// Piecewise-constant samples per cycle.
        steps: usize,
    },
    /// Constant rate under popularity churn: the Zipf head rotates by
    /// `shift` files every `rotate_every_ns`.
    Churn {
        /// Offered rate, requests/sec.
        rate_rps: f64,
        /// Virtual time between head rotations.
        rotate_every_ns: u64,
        /// Files the rank→file mapping shifts per rotation.
        shift: usize,
    },
}

impl OpenLoopProcess {
    /// Build the seeded process over `workload`.
    pub fn build(&self, workload: Arc<Workload>, seed: u64) -> Box<dyn ArrivalProcess> {
        match *self {
            OpenLoopProcess::Poisson { rate_rps } => {
                Box::new(PoissonProcess::new(workload, rate_rps, seed))
            }
            OpenLoopProcess::FlashCrowd {
                base_rps,
                peak_rps,
                start_ns,
                duration_ns,
                crowd_fraction,
            } => {
                // The crowd converges on the coldest file of the head —
                // the "suddenly popular cold object" of the CDN story.
                let target = TraceFileId((workload.num_files() - 1) as u32);
                Box::new(ScheduledProcess::flash_crowd(
                    workload,
                    base_rps,
                    peak_rps,
                    Hotspot {
                        target,
                        fraction: crowd_fraction,
                        start_ns,
                        duration_ns,
                    },
                    seed,
                ))
            }
            OpenLoopProcess::Diurnal {
                trough_rps,
                peak_rps,
                period_ns,
                steps,
            } => Box::new(ScheduledProcess::diurnal(
                workload, trough_rps, peak_rps, period_ns, steps, seed,
            )),
            OpenLoopProcess::Churn {
                rate_rps,
                rotate_every_ns,
                shift,
            } => Box::new(ChurnProcess::new(
                workload,
                rate_rps,
                rotate_every_ns,
                shift,
                seed,
            )),
        }
    }

    /// The process's report label.
    pub fn label(&self) -> &'static str {
        match self {
            OpenLoopProcess::Poisson { .. } => "poisson",
            OpenLoopProcess::FlashCrowd { .. } => "flash-crowd",
            OpenLoopProcess::Diurnal { .. } => "diurnal",
            OpenLoopProcess::Churn { .. } => "churn",
        }
    }
}

/// Everything that determines an open-loop run.
#[derive(Debug, Clone)]
pub struct OpenLoopSpec {
    /// Which calibrated trace preset supplies sizes and popularity.
    pub preset: Preset,
    /// Restrict the preset to its `n` hottest files (`None` = full
    /// catalog); the flash-crowd target is the head's coldest file.
    pub head_files: Option<usize>,
    /// Cluster size; arrival `i` lands on node `i % nodes` (round-robin
    /// DNS over the arrival points).
    pub nodes: usize,
    /// Per-node cache capacity in blocks.
    pub capacity_blocks: usize,
    /// Replacement policy under test.
    pub policy: ReplacementPolicy,
    /// Seed for the arrival schedule and the synthetic store.
    pub seed: u64,
    /// The arrival process.
    pub process: OpenLoopProcess,
    /// Arrivals served in-order (untimed, always admitted) to warm the
    /// caches before the window.
    pub warmup_events: usize,
    /// Arrivals inside the measurement window.
    pub measure_events: usize,
    /// The bounded in-flight table: an arrival that finds this many
    /// requests outstanding is shed (counted), the open-loop overload
    /// contract.
    pub max_inflight: usize,
    /// Worker threads serving admitted requests (real-time mode only).
    pub workers: usize,
    /// `true`: M/D/c/c loss-system admission in virtual time, then
    /// in-order live replay of the admitted subsequence — fully
    /// deterministic. `false`: wall-clock pacing with a worker pool.
    pub virtual_time: bool,
    /// Virtual service time per admitted request: `base + per_block ×
    /// blocks` (virtual-time mode's service model).
    pub service_base_ns: u64,
    /// See [`OpenLoopSpec::service_base_ns`].
    pub service_per_block_ns: u64,
    /// Run the cluster behind per-node HTTP listeners and scrape
    /// `/metrics` during the run.
    pub serve_metrics: bool,
}

impl OpenLoopSpec {
    /// A small default cell: 4 nodes, 300-file head, 64-block caches, a
    /// 400 req/s Poisson stream, 32 in-flight slots, virtual time.
    pub fn new(preset: Preset) -> OpenLoopSpec {
        OpenLoopSpec {
            preset,
            head_files: Some(300),
            nodes: 4,
            capacity_blocks: 64,
            policy: ReplacementPolicy::MasterPreserving,
            seed: 0x0B39,
            process: OpenLoopProcess::Poisson { rate_rps: 400.0 },
            warmup_events: 600,
            measure_events: 1_200,
            max_inflight: 32,
            workers: 8,
            virtual_time: true,
            service_base_ns: 200_000,
            service_per_block_ns: 60_000,
            serve_metrics: false,
        }
    }

    /// The workload this spec samples files from.
    pub fn workload(&self) -> Workload {
        let full = self.preset.workload();
        match self.head_files {
            Some(n) => full.head(n),
            None => full,
        }
    }

    /// The full recorded arrival schedule (warm-up then window) — a pure
    /// function of the spec.
    pub fn schedule(&self) -> Vec<Arrival> {
        let wl = Arc::new(self.workload());
        let mut process = self.process.build(wl, self.seed);
        ccm_arrivals::record(&mut *process, self.warmup_events + self.measure_events)
    }

    /// The deterministic virtual service time of one request for `file`.
    fn service_ns(&self, catalog: &Catalog, file: CoreFileId) -> u64 {
        let blocks = blocks_of_file(catalog.size_of(file)) as u64;
        self.service_base_ns + self.service_per_block_ns * blocks
    }

    /// The policy's figure label.
    pub fn policy_label(&self) -> &'static str {
        self.policy.label()
    }
}

/// Driver-side handles for the `ccm_load_*` open-loop family.
struct LoadObs {
    requests: Counter,
    sheds: Counter,
    offered: Gauge,
    inflight: Gauge,
    latency: Histogram,
}

impl LoadObs {
    fn new(registry: &Registry) -> LoadObs {
        LoadObs {
            requests: registry.counter(
                "ccm_load_requests_total",
                "Requests the load generator completed",
                &[("phase", "openloop")],
            ),
            sheds: registry.counter(
                "ccm_load_shed_total",
                "Open-loop arrivals refused at the bounded in-flight table",
                &[],
            ),
            offered: registry.gauge(
                "ccm_load_offered_rps",
                "Offered arrival rate at the schedule's current instant, requests/sec",
                &[],
            ),
            inflight: registry.gauge(
                "ccm_load_inflight",
                "Admitted open-loop requests currently outstanding (the queue-growth gauge)",
                &[],
            ),
            latency: registry.histogram(
                "ccm_load_request_latency_ns",
                "End-to-end file-read latency as the load generator sees it",
                &[("phase", "openloop")],
            ),
        }
    }
}

/// What the measurement window delivered (driver counts).
#[derive(Clone, Copy, Default)]
struct WindowOut {
    served: u64,
    shed: u64,
    blocks: u64,
    bytes: u64,
    digest: u64,
    peak_inflight: i64,
}

/// Serve one admitted request against the cluster, verify the bytes, and
/// fold the driver counts.
fn serve_one(
    mw: &Middleware,
    store: &dyn BlockStore,
    catalog: &Catalog,
    node: NodeId,
    file: CoreFileId,
    seq: u64,
    out: &mut WindowOut,
) {
    let got = mw.handle(node).read_file(file);
    let want = read_file_direct(store, catalog, file);
    assert!(
        got == want,
        "corrupt serve: file {} returned {} bytes (want {})",
        file.0,
        got.len(),
        want.len()
    );
    out.served += 1;
    out.blocks += blocks_of_file(want.len() as u64) as u64;
    out.bytes += want.len() as u64;
    out.digest ^= req_digest(seq, &got);
}

/// Virtual-time window: M/D/c/c loss-system admission over the schedule,
/// then in-order live replay of the admitted subsequence. Deterministic
/// end to end.
#[allow(clippy::too_many_arguments)]
fn drive_virtual(
    spec: &OpenLoopSpec,
    mw: &Middleware,
    store: &Arc<dyn BlockStore>,
    catalog: &Catalog,
    window: &[Arrival],
    process: &dyn ArrivalProcess,
    obs: &LoadObs,
) -> WindowOut {
    let mut out = WindowOut::default();
    // Completion instants of the requests currently holding a slot.
    let mut busy: BinaryHeap<Reverse<u64>> = BinaryHeap::new();
    for (i, a) in window.iter().enumerate() {
        while let Some(&Reverse(done)) = busy.peek() {
            if done <= a.at_ns {
                busy.pop();
            } else {
                break;
            }
        }
        obs.offered.set(process.rate_at(a.at_ns) as i64);
        obs.inflight.set(busy.len() as i64);
        out.peak_inflight = out.peak_inflight.max(busy.len() as i64);
        if busy.len() >= spec.max_inflight {
            out.shed += 1;
            obs.sheds.inc();
            continue;
        }
        let file = CoreFileId(a.file.0);
        busy.push(Reverse(a.at_ns + spec.service_ns(catalog, file)));
        let node = NodeId((i % spec.nodes) as u16);
        // The live replay: the cluster's cache trajectory sees exactly
        // the admitted subsequence, in schedule order.
        let sw = ccm_obs::Stopwatch::start();
        serve_one(mw, &**store, catalog, node, file, i as u64, &mut out);
        sw.stop(&obs.latency);
        obs.requests.inc();
        // Barrier the data plane between serves: every async directory
        // update and eviction notice lands before the next arrival, so
        // the cache trajectory is a pure function of the admitted
        // subsequence on *any* transport — without this, a flash crowd
        // over TCP can catch a hint mid-flight and take a (legitimate
        // but nondeterministic) fallback.
        mw.quiesce();
    }
    out
}

/// One admitted unit of real-time work.
struct Job {
    seq: u64,
    file: CoreFileId,
    node: NodeId,
    scheduled: Instant,
}

/// Real-time window: pace the schedule against the wall clock, shed at
/// the in-flight bound, serve on a worker pool, and measure latency from
/// each request's *scheduled* instant (queue wait included).
#[allow(clippy::too_many_arguments)]
fn drive_real_time(
    spec: &OpenLoopSpec,
    mw: &Middleware,
    store: &Arc<dyn BlockStore>,
    catalog: &Catalog,
    window: &[Arrival],
    process: &dyn ArrivalProcess,
    obs: &LoadObs,
    scrape: Option<SocketAddr>,
) -> (WindowOut, Option<bool>) {
    let inflight = AtomicI64::new(0);
    let (tx, rx) = mpsc::channel::<Job>();
    let rx = Arc::new(Mutex::new(rx));
    let origin_ns = window.first().map_or(0, |a| a.at_ns);

    std::thread::scope(|s| {
        let joins: Vec<_> = (0..spec.workers)
            .map(|_| {
                let rx = rx.clone();
                let inflight = &inflight;
                s.spawn(move || {
                    let mut out = WindowOut::default();
                    loop {
                        let job = match rx.lock().expect("rx lock").recv() {
                            Ok(j) => j,
                            Err(_) => break,
                        };
                        serve_one(mw, &**store, catalog, job.node, job.file, job.seq, &mut out);
                        obs.latency
                            .record(job.scheduled.elapsed().as_nanos() as u64);
                        obs.requests.inc();
                        inflight.fetch_sub(1, Ordering::SeqCst);
                    }
                    out
                })
            })
            .collect();

        // The dispatcher: the open loop itself. Arrivals fire on
        // schedule whether or not earlier requests completed.
        let t0 = Instant::now();
        let mut shed = 0u64;
        let mut peak = 0i64;
        for (i, a) in window.iter().enumerate() {
            let due = t0 + Duration::from_nanos(a.at_ns - origin_ns);
            loop {
                let now = Instant::now();
                if now >= due {
                    break;
                }
                let gap = due - now;
                if gap > Duration::from_micros(200) {
                    std::thread::sleep(gap - Duration::from_micros(100));
                } else {
                    std::hint::spin_loop();
                }
            }
            obs.offered.set(process.rate_at(a.at_ns) as i64);
            let in_now = inflight.load(Ordering::SeqCst);
            obs.inflight.set(in_now);
            peak = peak.max(in_now);
            if in_now >= spec.max_inflight as i64 {
                shed += 1;
                obs.sheds.inc();
                continue;
            }
            inflight.fetch_add(1, Ordering::SeqCst);
            tx.send(Job {
                seq: i as u64,
                file: CoreFileId(a.file.0),
                node: NodeId((i % spec.nodes) as u16),
                scheduled: due,
            })
            .expect("worker pool hung up");
        }
        drop(tx);
        // Scrape while the tail of the window drains through the pool.
        let scraped = scrape.map(|a| scrape_ok(a, &SCRAPE_FAMILIES));
        let mut out = joins.into_iter().fold(WindowOut::default(), |mut acc, j| {
            let w = j.join().expect("open-loop worker panicked");
            acc.served += w.served;
            acc.blocks += w.blocks;
            acc.bytes += w.bytes;
            acc.digest ^= w.digest;
            acc
        });
        out.shed = shed;
        out.peak_inflight = peak;
        (out, scraped)
    })
}

/// Run `spec` over the in-process channel LAN.
pub fn run_open_loop(spec: &OpenLoopSpec) -> OpenLoopReport {
    run_open_loop_inner(spec, "channel", None)
}

/// Run `spec` over a caller-built transport (e.g. `ccm-net`'s `TcpLan`).
pub fn run_open_loop_on(
    spec: &OpenLoopSpec,
    transport: Arc<dyn Transport>,
    backend: &str,
) -> OpenLoopReport {
    run_open_loop_inner(spec, backend, Some(transport))
}

fn run_open_loop_inner(
    spec: &OpenLoopSpec,
    backend: &str,
    transport: Option<Arc<dyn Transport>>,
) -> OpenLoopReport {
    assert!(spec.nodes > 0, "empty cluster");
    assert!(spec.measure_events > 0, "empty measurement window");
    assert!(spec.max_inflight > 0, "no in-flight slots");
    assert!(spec.virtual_time || spec.workers > 0, "no workers");

    let wl = Arc::new(spec.workload());
    let schedule = spec.schedule();
    let process = spec.process.build(wl.clone(), spec.seed);
    let catalog = Catalog::new(wl.sizes().to_vec());
    let store: Arc<dyn BlockStore> = Arc::new(SyntheticStore::new(catalog.clone(), spec.seed));
    let registry = Registry::new();
    let cfg = RtConfig {
        nodes: spec.nodes,
        capacity_blocks: spec.capacity_blocks,
        policy: spec.policy,
        // Virtual-time replay is sequential; like the closed-loop
        // deterministic mode, only a genuine hang should trip the
        // timeout.
        fetch_timeout: if spec.virtual_time {
            Duration::from_secs(60)
        } else {
            Duration::from_secs(2)
        },
        obs: Some(registry.clone()),
        ..RtConfig::default()
    };
    let cluster = Cluster::start(
        cfg,
        catalog.clone(),
        store.clone(),
        transport,
        spec.serve_metrics,
    );
    let mw = cluster.mw();
    let obs = LoadObs::new(&registry);

    // Warm-up: the schedule's head, served in-order and untimed (the
    // overload machinery only makes sense against warm caches).
    let (warm, window) = schedule.split_at(spec.warmup_events);
    let mut warm_out = WindowOut::default();
    for (i, a) in warm.iter().enumerate() {
        let node = NodeId((i % spec.nodes) as u16);
        serve_one(
            mw,
            &*store,
            &catalog,
            node,
            CoreFileId(a.file.0),
            i as u64,
            &mut warm_out,
        );
        // Virtual-time runs must warm the caches identically on every
        // transport too (see the barrier note in `drive_virtual`).
        if spec.virtual_time {
            mw.quiesce();
        }
    }
    mw.quiesce();
    let warm_stats = mw.stats();
    let warm_snap = mw.obs_snapshot();

    // The measurement window.
    let started = Instant::now();
    let (out, scraped) = if spec.virtual_time {
        let out = drive_virtual(spec, mw, &store, &catalog, window, &*process, &obs);
        let scraped = cluster
            .scrape_addr()
            .map(|a| scrape_ok(a, &SCRAPE_FAMILIES));
        (out, scraped)
    } else {
        drive_real_time(
            spec,
            mw,
            &store,
            &catalog,
            window,
            &*process,
            &obs,
            cluster.scrape_addr(),
        )
    };
    let elapsed = started.elapsed().as_secs_f64().max(1e-9);
    mw.quiesce();
    mw.check_invariants();
    let measured = mw.stats().delta_since(&warm_stats);
    let done_snap = mw.obs_snapshot();

    // Reconcile: every arrival is accounted (admitted + shed, nothing
    // silent), the driver's block count matches the runtime's read-class
    // registry deltas, and the shed counter matches the metric family.
    let class = |snap: &Snapshot, c: &str| snap.counter_sum_where("ccm_rt_reads_total", "class", c);
    let classes: u64 = ["local", "remote", "disk", "fallback"]
        .iter()
        .map(|c| class(&done_snap, c) - class(&warm_snap, c))
        .sum();
    let mut reconciled = out.served + out.shed == window.len() as u64
        && classes == out.blocks
        && measured.accesses() == out.blocks
        && obs.sheds.get() == out.shed
        && obs.requests.get() == out.served;
    if spec.virtual_time {
        assert_eq!(
            measured.store_fallbacks, 0,
            "virtual-time replay must not race the data plane"
        );
        reconciled &= measured.store_fallbacks == 0;
        assert!(
            reconciled,
            "virtual-time open loop failed reconciliation: served {} shed {} of {}, \
             driver blocks {}, registry {}",
            out.served,
            out.shed,
            window.len(),
            out.blocks,
            classes
        );
    }

    // Offered load over the window, in virtual terms — deterministic.
    let t_lo = window.first().map_or(0, |a| a.at_ns);
    let t_hi = window.last().map_or(t_lo, |a| a.at_ns);
    let window_s = ((t_hi - t_lo).max(1)) as f64 / NS_PER_SEC as f64;
    let expected = process.expected_events(t_lo, t_hi);

    let latency = LatencySummary::of(&obs.latency.snapshot());
    let report = OpenLoopReport {
        backend: backend.to_string(),
        preset: wl.name().to_string(),
        policy: spec.policy_label().to_string(),
        process: process.label().to_string(),
        nodes: spec.nodes,
        capacity_blocks: spec.capacity_blocks,
        seed: spec.seed,
        virtual_time: spec.virtual_time,
        max_inflight: spec.max_inflight,
        warmup_events: spec.warmup_events,
        measure_events: spec.measure_events,
        offered_events: window.len() as u64,
        expected_events: expected,
        served: out.served,
        shed: out.shed,
        blocks: out.blocks,
        bytes: out.bytes,
        digest: out.digest,
        offered_rps: window.len() as f64 / window_s,
        achieved_rps_virtual: out.served as f64 / window_s,
        measured,
        reconciled,
        peak_inflight: out.peak_inflight,
        metrics_scrape: scraped,
        elapsed_s: elapsed,
        wall_rps: out.served as f64 / elapsed,
        goodput_mb_s: out.bytes as f64 / (1024.0 * 1024.0) / elapsed,
        latency,
    };
    cluster.shutdown();
    report
}

/// Everything one open-loop run produced, split like [`crate::LoadReport`]
/// into a seed-deterministic section and a wall-clock timing section.
#[derive(Debug, Clone)]
pub struct OpenLoopReport {
    /// Transport label (`channel` / `tcp`).
    pub backend: String,
    /// Workload name, head truncation included.
    pub preset: String,
    /// Replacement policy label.
    pub policy: String,
    /// Arrival-process label (`poisson` / `flash-crowd` / `diurnal` /
    /// `churn`).
    pub process: String,
    /// Cluster size.
    pub nodes: usize,
    /// Per-node cache capacity in blocks.
    pub capacity_blocks: usize,
    /// Schedule/store seed.
    pub seed: u64,
    /// Whether admission ran in deterministic virtual time.
    pub virtual_time: bool,
    /// The in-flight bound.
    pub max_inflight: usize,
    /// Warm-up arrivals before the window.
    pub warmup_events: usize,
    /// Arrivals inside the window.
    pub measure_events: usize,
    /// Arrivals actually offered in the window (= `measure_events`).
    pub offered_events: u64,
    /// The rate schedule's integral over the window — the
    /// rate-conservation oracle the offered count is checked against.
    pub expected_events: f64,
    /// Arrivals admitted and served (byte-verified).
    pub served: u64,
    /// Arrivals refused at the in-flight bound (counted, never silent).
    pub shed: u64,
    /// Block accesses the served requests cost.
    pub blocks: u64,
    /// Payload bytes delivered.
    pub bytes: u64,
    /// Order-insensitive window digest (XOR of per-request FNV).
    pub digest: u64,
    /// Offered load over the window, virtual time (deterministic).
    pub offered_rps: f64,
    /// Served load over the window, virtual time (deterministic).
    pub achieved_rps_virtual: f64,
    /// Protocol counters, delta over the window.
    pub measured: CacheStats,
    /// All the cross-checks held (see the module docs).
    pub reconciled: bool,
    /// Highest in-flight occupancy observed (the queue-growth gauge's
    /// high-water mark).
    pub peak_inflight: i64,
    /// `Some(ok)` when `/metrics` was scraped mid-run.
    pub metrics_scrape: Option<bool>,
    /// Window wall time, seconds.
    pub elapsed_s: f64,
    /// Served requests per wall second.
    pub wall_rps: f64,
    /// Verified payload megabytes per wall second — the goodput figure.
    pub goodput_mb_s: f64,
    /// Per-request latency (from the scheduled arrival instant in
    /// real-time mode — queue wait included).
    pub latency: LatencySummary,
}

impl OpenLoopReport {
    /// Cluster-memory hit ratio (local + remote) over the window.
    pub fn total_hit_ratio(&self) -> f64 {
        self.measured.total_hit_rate()
    }

    /// Fraction of offered arrivals shed at the bound.
    pub fn shed_ratio(&self) -> f64 {
        if self.offered_events == 0 {
            0.0
        } else {
            self.shed as f64 / self.offered_events as f64
        }
    }

    /// The deterministic fields as a comma-terminated JSON fragment.
    fn deterministic_fields(&self) -> String {
        let m = &self.measured;
        format!(
            concat!(
                "\"backend\": \"{}\", \"preset\": \"{}\", \"policy\": \"{}\", ",
                "\"process\": \"{}\", \"nodes\": {}, \"capacity_blocks\": {}, ",
                "\"seed\": {}, \"virtual_time\": {}, \"max_inflight\": {}, ",
                "\"warmup_events\": {}, \"measure_events\": {}, ",
                "\"offered_events\": {}, \"expected_events\": {:.1}, ",
                "\"served\": {}, \"shed\": {}, \"shed_ratio\": {:.6}, ",
                "\"blocks\": {}, \"bytes\": {}, \"digest\": \"{:#018x}\", ",
                "\"offered_rps\": {:.1}, \"achieved_rps_virtual\": {:.1}, ",
                "\"local_hits\": {}, \"remote_hits\": {}, \"disk_reads\": {}, ",
                "\"store_fallbacks\": {}, ",
                "\"local_hit_ratio\": {:.6}, \"total_hit_ratio\": {:.6}, ",
                "\"reconciled\": {}"
            ),
            self.backend,
            self.preset,
            self.policy,
            self.process,
            self.nodes,
            self.capacity_blocks,
            self.seed,
            self.virtual_time,
            self.max_inflight,
            self.warmup_events,
            self.measure_events,
            self.offered_events,
            self.expected_events,
            self.served,
            self.shed,
            self.shed_ratio(),
            self.blocks,
            self.bytes,
            self.digest,
            self.offered_rps,
            self.achieved_rps_virtual,
            m.local_hits,
            m.remote_hits,
            m.disk_reads,
            m.store_fallbacks,
            m.local_hit_rate(),
            m.total_hit_rate(),
            self.reconciled,
        )
    }

    /// The seed-determined projection: for a virtual-time run,
    /// bit-identical across reruns and across channel/TCP backends.
    pub fn deterministic_json(&self) -> String {
        format!("{{ {} }}", self.deterministic_fields())
    }

    /// The full cell: deterministic section plus wall-clock goodput and
    /// latency.
    pub fn to_json(&self) -> String {
        let scrape = match self.metrics_scrape {
            Some(ok) => ok.to_string(),
            None => "null".to_string(),
        };
        format!(
            "{{ {}, \"peak_inflight\": {}, \"metrics_scrape\": {}, \
             \"elapsed_s\": {:.3}, \"wall_rps\": {:.1}, \"goodput_mb_s\": {:.2}, \
             \"latency_ns\": {} }}",
            self.deterministic_fields(),
            self.peak_inflight,
            scrape,
            self.elapsed_s,
            self.wall_rps,
            self.goodput_mb_s,
            self.latency.to_json(),
        )
    }

    /// One human line for progress output.
    pub fn summary(&self) -> String {
        format!(
            "{:<8} {:<18} {:<17} {:<11} offered {:>7.1} rps: served {:>5}, \
             shed {:>4} ({:>5.1}%), hit {:>5.1}%, goodput {:>6.2} MB/s, p99 {:>9} ns",
            self.backend,
            self.preset,
            self.policy,
            self.process,
            self.offered_rps,
            self.served,
            self.shed,
            100.0 * self.shed_ratio(),
            100.0 * self.total_hit_ratio(),
            self.goodput_mb_s,
            self.latency.p99_ns,
        )
    }
}
