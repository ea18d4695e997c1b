//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! [--clients <1|2>]`
//!
//! Starts a live 4-node cluster in-process, drives it with the workload's
//! seeded request stream, checks every response, and prints each metric
//! by name with its unit. The last line of standard output is one JSON
//! object: `{"correct", "attempted", "failed", "metrics"}`. With
//! `--trace 0` the metrics are the end-to-end ones; with `--trace 1` a
//! traced run reports the per-layer ones. Any failed correctness gate,
//! request-stream digest mismatch or generator-lateness breach exits
//! nonzero without printing a result. See README.md.

use ccm_core::{FileId, NodeId};
use ccm_front::client::FrontClient;
use ccm_rt::{BlockStore, NodeHandle};
use perfbench::cluster::Cluster;
use perfbench::openloop::{closed_loop, open_loop, ClosedRun, OpenRun, Outcome, Timed};
use perfbench::span::{self, Kind, Recorder};
use perfbench::stats::{self, Rung};
use perfbench::verify::{Expect, Versions};
use perfbench::workload::{self, Op, Spec, BACKLOG_LIMIT, LATE_LIMIT_MS, NODES, POOL};
use perfbench::{host, pinned};
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Cluster set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;
/// Load-generator threads by default, each with one connection (or
/// caller).
const CLIENTS: usize = 2;
/// Op classes.
const READ: u8 = 0;
const WRITE: u8 = 1;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    clients: usize,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut clients = CLIENTS;
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |_| format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(bad)?),
            "--seconds" => seconds = Some(value.parse::<u64>().map_err(bad)?),
            "--trace" => trace = Some(value.parse::<u8>().map_err(bad)? == 1),
            "--clients" => clients = value.parse::<usize>().map_err(bad)?,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let seconds = seconds.unwrap_or(20);
    if !(1..=600).contains(&seconds) {
        return Err("--seconds must be 1..=600".into());
    }
    if !(1..=CLIENTS).contains(&clients) {
        return Err(format!("--clients must be 1..={CLIENTS}"));
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds,
        trace: trace.unwrap_or(false),
        clients,
    })
}

fn main() -> ExitCode {
    let process_start = Instant::now();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    // A cluster that stops answering must not hang the run: give up well
    // after a normal run would have ended.
    let limit = Duration::from_secs(2 * args.seconds + 60);
    std::thread::spawn(move || {
        std::thread::sleep(limit);
        eprintln!("perfbench: FAILED: no result after {} s", limit.as_secs());
        drop(TmpDir(run_dir()));
        std::process::exit(3);
    });
    match run(&args, process_start) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: FAILED: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Per-thread load-generator state: a connection or a set of node
/// handles, plus what this thread sent in the current phase.
struct Client {
    http: Option<FrontClient>,
    endpoint: std::net::SocketAddr,
    handles: Vec<NodeHandle>,
    tally: Tally,
}

#[derive(Default, Clone, Copy)]
struct Tally {
    /// Requests answered by the front tier (any status).
    answered: u64,
    /// Block accesses made by reads.
    blocks: u64,
    /// Acknowledged writes.
    writes: u64,
}

impl Tally {
    fn add(&mut self, o: Tally) {
        self.answered += o.answered;
        self.blocks += o.blocks;
        self.writes += o.writes;
    }
}

/// Everything the op closure needs, shared by all generator threads.
struct Load<'a> {
    spec: &'a Spec,
    pool: &'a [Op],
    expect: &'a Expect,
    versions: &'a Versions,
    rec: &'a Recorder,
    catalog: ccm_rt::Catalog,
    /// First correctness mismatch seen.
    mismatch: Mutex<Option<String>>,
}

impl Load<'_> {
    fn fail(&self, what: String) {
        let mut m = self.mismatch.lock().expect("mismatch slot poisoned");
        m.get_or_insert(what);
    }

    /// Run pool request `seq` on `c`.
    fn op(&self, c: &mut Client, seq: u64) -> Outcome {
        let op = self.pool[(seq % POOL as u64) as usize];
        if self.spec.http {
            self.http(c, op)
        } else {
            self.library(c, seq, op)
        }
    }

    fn http(&self, c: &mut Client, op: Op) -> Outcome {
        let failed = Outcome {
            ok: false,
            class: READ,
        };
        let Some(client) = c.http.as_mut() else {
            c.http = FrontClient::connect(c.endpoint).ok();
            return failed;
        };
        let file = op.file();
        let path = format!("/file/{}", file.0);
        let sent = Instant::now();
        let resp = match op {
            Op::Range(_, s, e) => client.get_with(&path, &[("Range", &format!("bytes={s}-{e}"))]),
            _ => client.get(&path),
        };
        let done = Instant::now();
        let Ok(resp) = resp else {
            // The connection is unusable; reconnect on the next request.
            c.http = None;
            return failed;
        };
        c.tally.answered += 1;
        if self.rec.on() {
            self.rec.record(Kind::Request, file.0, sent, done);
        }
        let good = match op {
            Op::Range(_, s, e) => resp.status == 206 && self.expect.range(file, s, e, &resp.body),
            _ => resp.status == 200 && self.expect.file(file, &resp.body),
        };
        if !good {
            self.fail(format!(
                "{op:?}: status {} with a {}-byte body that does not match the store",
                resp.status,
                resp.body.len()
            ));
            return failed;
        }
        c.tally.blocks += op.blocks(&self.catalog);
        Outcome {
            ok: true,
            class: READ,
        }
    }

    fn library(&self, c: &mut Client, seq: u64, op: Op) -> Outcome {
        let handle = &c.handles[(seq % NODES as u64) as usize];
        match op {
            Op::Write(block) => {
                let ok = {
                    let _span = self.rec.open(Kind::Write, block.file.0);
                    self.versions.write(handle, block).is_ok()
                };
                c.tally.writes += ok as u64;
                Outcome { ok, class: WRITE }
            }
            Op::Get(file) | Op::Range(file, ..) => {
                let before = self.versions.before(file);
                let body = {
                    let _span = self.rec.open(Kind::Read, file.0);
                    handle.read_file(file)
                };
                if let Err(e) = self.versions.check(self.expect, file, &before, &body) {
                    self.fail(format!("read at {:?}: {e}", handle.node()));
                    return Outcome {
                        ok: false,
                        class: READ,
                    };
                }
                c.tally.blocks += self.catalog.blocks_of(file) as u64;
                Outcome {
                    ok: true,
                    class: READ,
                }
            }
        }
    }
}

/// The program's counters, by name, read around a phase.
#[derive(Clone, Default)]
struct Counts(Vec<(&'static str, u64)>);

impl Counts {
    fn read(cl: &Cluster) -> Counts {
        let cache = cl.mw.stats();
        let net = cl.lan.net_stats();
        let writes = cl.mw.write_stats();
        let disks: Vec<_> = (0..NODES)
            .map(|n| cl.mw.disk_stats(NodeId(n as u16)))
            .collect();
        let disk = |f: fn(&ccm_rt::DiskStats) -> u64| disks.iter().map(f).sum::<u64>();
        let c = &cl.traced_lan.counts;
        let load = |a: &AtomicU64| a.load(Ordering::SeqCst);
        let front = cl.front.as_ref();
        Counts(vec![
            ("dispatched", cl.dispatched()),
            ("handoffs", front.map_or(0, |f| f.handoffs())),
            ("rejected", front.map_or(0, |f| f.rejected())),
            ("local", cache.local_hits),
            ("remote", cache.remote_hits),
            ("disk", cache.disk_reads),
            ("fallbacks", cache.store_fallbacks),
            ("forwards", cache.forwards),
            ("rt_writes", writes.writes),
            ("flushes", writes.flushes),
            ("disk_requests", disk(|d| d.requests)),
            ("physical", disk(|d| d.physical_reads())),
            ("coalesce", disk(|d| d.coalesce_hits)),
            ("readahead_hits", disk(|d| d.readahead_hits)),
            ("seeks", disk(|d| d.seeks)),
            ("disk_writes", disk(|d| d.writes)),
            ("frames", net.frames_sent),
            ("trains", net.trains_sent),
            ("teardowns", net.teardowns),
            ("fetches", load(&c.fetches)),
            ("fetch_misses", load(&c.fetch_misses)),
            ("forward", load(&c.forward)),
            ("invalidate", load(&c.invalidate)),
            ("write_invalidate", load(&c.write_invalidate)),
        ])
    }

    /// `self - before`, field by field.
    fn since(&self, before: &Counts) -> Counts {
        Counts(
            self.0
                .iter()
                .zip(&before.0)
                .map(|(a, b)| (a.0, a.1 - b.1))
                .collect(),
        )
    }

    /// Add `d` field by field (an empty total takes `d` as is).
    fn add(&mut self, d: &Counts) {
        if self.0.is_empty() {
            self.0 = d.0.clone();
        } else {
            for (a, b) in self.0.iter_mut().zip(&d.0) {
                a.1 += b.1;
            }
        }
    }

    fn get(&self, name: &str) -> f64 {
        self.0
            .iter()
            .find(|c| c.0 == name)
            .map_or(0.0, |c| c.1 as f64)
    }
}

/// Largest disk-service queue depth seen on any node.
fn max_queue_depth(cl: &Cluster) -> u64 {
    (0..NODES)
        .map(|n| cl.mw.disk_stats(NodeId(n as u16)).max_queue_depth)
        .max()
        .unwrap_or(0)
}

fn run(args: &Args, process_start: Instant) -> Result<(), String> {
    let spec = Spec::named(&args.workload).ok_or(format!(
        "unknown workload {} (remote-hot, disk-bound, write-back)",
        args.workload
    ))?;
    println!(
        "perfbench workload={} seed={} seconds={} trace={} clients={}",
        spec.name, args.seed, args.seconds, args.trace as u8, args.clients
    );
    println!("host {}", host::fingerprint());

    // The request stream, and the drift check on the generator behind it.
    let pool = workload::stream(&spec, args.seed);
    let digest = workload::stream_digest(&pool);
    let canary = workload::stream_digest(&workload::stream(&spec, workload::CANARY_SEED));
    let pinned_canary = pinned::digest(spec.name, workload::CANARY_SEED);
    if pinned_canary != Some(canary) {
        return Err(format!(
            "request-stream drift: canary seed {} digest {canary:#018x}, pinned {:?}",
            workload::CANARY_SEED,
            pinned_canary.map(|d| format!("{d:#018x}"))
        ));
    }
    let pinned_seed = pinned::digest(spec.name, args.seed);
    if pinned_seed.is_some_and(|d| d != digest) {
        return Err(format!(
            "request-stream drift: seed {} digest {digest:#018x}, pinned {:#018x}",
            args.seed,
            pinned_seed.expect("checked")
        ));
    }
    println!(
        "stream digest={digest:#018x} requests={POOL} seed-pinned={} canary=ok",
        pinned_seed.is_some()
    );

    println!("{}", spec.describe());
    let catalog = spec.catalog();
    let expect = Expect::new(&catalog, args.seed);
    let versions = Versions::new(&catalog, args.seed);
    let rec = Arc::new(Recorder::default());
    let scratch = TmpDir(run_dir());

    // Set up several times, each after the previous cluster is shut down;
    // measure on the last cluster.
    let mut setup_s = Vec::new();
    let mut cluster = None;
    for i in 0..SETUPS {
        if let Some(old) = cluster.take() {
            Cluster::shutdown(old);
        }
        let t0 = Instant::now();
        let cl = Cluster::start(
            &spec,
            &scratch.0.join(i.to_string()),
            expect.synth(),
            rec.clone(),
        )
        .map_err(|e| format!("cluster start: {e}"))?;
        warm_up(&cl, &spec, &pool);
        setup_s.push(t0.elapsed().as_secs_f64());
        cluster = Some(cl);
    }
    let cl = cluster.expect("at least one set-up");
    println!(
        "  set-up: {:.3} s from process start to the first measured phase",
        process_start.elapsed().as_secs_f64()
    );

    let load = Load {
        spec: &spec,
        pool: &pool,
        expect: &expect,
        versions: &versions,
        rec: &rec,
        catalog: catalog.clone(),
        mismatch: Mutex::new(None),
    };
    let mut clients: Vec<Client> = (0..args.clients)
        .map(|i| {
            let endpoint = cl
                .front
                .as_ref()
                .map_or(([127, 0, 0, 1], 0).into(), |f| f.addrs()[i]);
            Client {
                http: cl
                    .front
                    .as_ref()
                    .and_then(|_| FrontClient::connect(endpoint).ok()),
                endpoint,
                handles: (0..NODES).map(|n| cl.mw.handle(NodeId(n as u16))).collect(),
                tally: Tally::default(),
            }
        })
        .collect();

    let secs = args.seconds as f64;
    let result = if args.trace {
        traced(&cl, &spec, &load, &mut clients, secs)
    } else {
        untraced(&cl, &spec, &load, &mut clients, secs, &setup_s)
    };
    let durable = durability(&cl, &spec, &versions);
    drop(clients);
    Cluster::shutdown(cl);
    let (metrics, totals) = result?;
    let (attempted, failed) = (totals.attempted, totals.failed);
    durable?;

    for (name, value, unit) in &metrics {
        if !value.is_finite() {
            return Err(format!("metric {name} is not a number"));
        }
        println!("{name:<34} {value:>14.6} {unit}");
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": true, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    );
    Ok(())
}

type Metrics = Vec<(&'static str, f64, &'static str)>;

/// Where set-ups build their data files, relative to the working
/// directory.
const TMP: &str = ".perfbench_tmp";

/// This process's data directory.
fn run_dir() -> PathBuf {
    PathBuf::from(TMP).join(std::process::id().to_string())
}

/// A run's data directory, removed (with `TMP` if that empties it) when
/// the run ends, on every path.
struct TmpDir(PathBuf);

impl Drop for TmpDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        let _ = std::fs::remove_dir(TMP);
    }
}

/// Fill the caches, one thread per node so every disk works at once:
/// optionally one pass over the whole catalog (each node reading a
/// contiguous quarter, so the pass is mostly sequential), then the last
/// `spec.warmup` reads of the pool. Reads only.
fn warm_up(cl: &Cluster, spec: &Spec, pool: &[Op]) {
    let files = cl.mw.catalog().num_files();
    let tail = &pool[POOL - spec.warmup..];
    std::thread::scope(|s| {
        for n in 0..NODES {
            let h = cl.mw.handle(NodeId(n as u16));
            s.spawn(move || {
                if spec.warm_pass {
                    for f in n * files / NODES..(n + 1) * files / NODES {
                        h.read_file(FileId(f as u32));
                    }
                }
                for op in tail.iter().skip(n).step_by(NODES) {
                    if !matches!(op, Op::Write(_)) {
                        h.read_file(op.file());
                    }
                }
            });
        }
    });
    cl.mw.quiesce();
}

/// Run `body` as one phase and reconcile it: every request the
/// generators got an answer for was dispatched exactly once, and every
/// block they read is one access in the middleware's hit-class totals.
/// Returns the counters' change over the phase.
fn phase(
    cl: &Cluster,
    load: &Load,
    clients: &mut [Client],
    name: &str,
    body: impl FnOnce(&mut [Client]),
) -> Result<Counts, String> {
    for c in clients.iter_mut() {
        c.tally = Tally::default();
    }
    let before = Counts::read(cl);
    body(clients);
    let d = Counts::read(cl).since(&before);
    if let Some(m) = load.mismatch.lock().expect("mismatch slot poisoned").take() {
        return Err(format!("{name}: response check failed: {m}"));
    }
    let mut tally = Tally::default();
    for c in clients.iter() {
        tally.add(c.tally);
    }
    let accesses = d.get("local") + d.get("remote") + d.get("disk");
    let (dispatched, writes) = (d.get("dispatched"), d.get("rt_writes"));
    if dispatched != tally.answered as f64
        || accesses != tally.blocks as f64
        || writes != tally.writes as f64
    {
        return Err(format!(
            "{name}: counters do not reconcile: generator answered={} blocks={} writes={}, \
             front dispatched={dispatched}, middleware accesses={accesses} writes={writes}",
            tally.answered, tally.blocks, tally.writes
        ));
    }
    Ok(d)
}

/// The run's next unused pool position.
struct Cursor(u64);

impl Cursor {
    fn take(&mut self, n: u64) -> u64 {
        let base = self.0;
        self.0 += n;
        base
    }
}

/// Unmeasured lead-in at the start of every phase, s: the first moments
/// after a change of load are a transition, not the steady state.
const LEAD: f64 = 0.2;
/// Window for throughput and median latency, s: many short windows per
/// run give their summary many values.
const SUB: f64 = 0.25;
/// Window for tail latency, s: long enough for a few hundred samples.
const TAIL: f64 = 0.5;

/// Open-loop phase at `rate` for `secs`, drawing from the pool at the
/// cursor. Returns the run and the counters' change.
#[allow(clippy::too_many_arguments)]
fn open_phase(
    cl: &Cluster,
    load: &Load,
    clients: &mut [Client],
    cursor: &mut Cursor,
    name: &str,
    rate: f64,
    secs: f64,
    totals: &mut Totals,
) -> Result<(OpenRun, Counts), String> {
    let base = cursor.take((secs * rate).ceil() as u64);
    let mut run = OpenRun::default();
    let d = phase(cl, load, clients, name, |cs| {
        run = open_loop(cs, rate, Duration::from_secs_f64(secs), |c, k| {
            load.op(c, base + k)
        });
    })?;
    totals.attempted += run.timed.len() as u64;
    totals.failed += run.timed.iter().filter(|t| !t.outcome.ok).count() as u64;
    Ok((run, d))
}

/// Operations attempted and failed over a run's measured phases.
#[derive(Default)]
struct Totals {
    attempted: u64,
    failed: u64,
}

/// Latency in ms; a failed request counts as infinite, missing any limit.
fn latency_ms(t: &Timed) -> f64 {
    if t.outcome.ok {
        t.latency_ns as f64 / 1e6
    } else {
        f64::INFINITY
    }
}

fn late_ms(t: &Timed) -> f64 {
    t.late_ns as f64 / 1e6
}

/// Per-window values of one metric, summarized over the run. Other
/// tenants of a shared host only ever slow a window down, and their load
/// comes and goes over seconds, so a metric reports the mean of its best
/// quarter of windows: the lowest for a latency, the highest for a rate.
/// That ignores interference in up to three windows of four, moves
/// continuously when windows shift between the system's fast and slow
/// modes, and still moves with every window when the program slows.
#[derive(Default)]
struct Series {
    values: Vec<f64>,
    /// Lowest percentile any window's tail used, and total samples.
    pct: f64,
    n: usize,
}

impl Series {
    fn push(&mut self, v: f64) {
        self.values.push(v);
    }

    /// Add a window's median. A window a stall left empty adds nothing.
    fn push_median(&mut self, window: &[f64]) {
        if !window.is_empty() {
            self.push(stats::quantile(window, 0.5));
        }
    }

    /// Add a window's tail. A window a stall left too small for one adds
    /// nothing.
    fn push_tail_of(&mut self, window: &[f64]) {
        if let Some(t) = stats::tail(window, 99.0) {
            self.pct = if self.values.is_empty() {
                t.pct
            } else {
                self.pct.min(t.pct)
            };
            self.n += t.n;
            self.values.push(t.value);
        }
    }

    /// An error unless some window contributed.
    fn require(&self, name: &str) -> Result<(), String> {
        if self.values.is_empty() {
            Err(format!("{name}: no window had enough samples"))
        } else {
            Ok(())
        }
    }

    /// Mean of the lowest quarter (a latency).
    fn low(&self) -> f64 {
        let v = stats::sorted(self.values.clone());
        stats::mean(&v[..v.len().div_ceil(4)])
    }

    /// Mean of the highest quarter (a rate).
    fn high(&self) -> f64 {
        let v = stats::sorted(self.values.clone());
        stats::mean(&v[v.len() - v.len().div_ceil(4)..])
    }

    fn show(&self) -> String {
        let v: Vec<String> = self.values.iter().map(|v| format!("{v:.3}")).collect();
        format!("[{}]", v.join(" "))
    }
}

/// Check the generator's lateness: the median over rounds of its tail
/// must stay within the limit.
fn check_lateness(late: &Series, name: &str) -> Result<(), String> {
    late.require(name)?;
    let median = stats::median(&late.values);
    println!(
        "  {name}: generator lateness p{:.1} per round {} ms (median {median:.3} ms)",
        late.pct,
        late.show()
    );
    if median > LATE_LIMIT_MS {
        return Err(format!(
            "{name}: generator ran late (median p{:.1} {median:.3} ms > {LATE_LIMIT_MS} ms)",
            late.pct
        ));
    }
    Ok(())
}

/// How many rounds a run of `secs` gets, and each round's length.
fn rounds(spec: &Spec, secs: f64) -> (usize, f64) {
    let n = ((secs / spec.round_s).round() as usize).max(1);
    (n, secs / n as f64)
}

/// End-to-end phases, repeated in rounds so every metric samples the
/// whole run: closed-loop throughput, open-loop latency at the nominal
/// rate, and every rung of the SLO rate ladder.
fn untraced(
    cl: &Cluster,
    spec: &Spec,
    load: &Load,
    clients: &mut [Client],
    secs: f64,
    setup_s: &[f64],
) -> Result<(Metrics, Totals), String> {
    let (n, round_s) = rounds(spec, secs);
    let closed_s = round_s * 0.2;
    let nominal_s = round_s * 0.3;
    let rung_s = round_s * 0.5 / spec.ladder.len() as f64;
    let mut cursor = Cursor(0);
    let mut totals = Totals::default();
    let [mut rates, mut p50, mut p99, mut w50, mut w99, mut late] =
        std::array::from_fn(|_| Series::default());
    let mut rung_tail: Vec<Series> = spec.ladder.iter().map(|_| Series::default()).collect();
    let mut rung_backlog: Vec<Series> = spec.ladder.iter().map(|_| Series::default()).collect();
    let start = Counts::read(cl);
    let cpu_start = host::cpu_s();
    for _ in 0..n {
        // Closed loop: every client, one request outstanding each.
        let base = cursor.0;
        let mut closed = ClosedRun::default();
        phase(cl, load, clients, "closed-loop", |cs| {
            let window = Duration::from_secs_f64(closed_s);
            closed = closed_loop(cs, window, base, |c, k| load.op(c, k));
        })?;
        cursor.take(closed.done);
        totals.attempted += closed.done;
        totals.failed += closed.failed;
        rates.values.extend(closed.rates(LEAD, SUB));

        // The nominal open loop.
        let rate = spec.nominal_rps;
        let (run, _) = open_phase(
            cl,
            load,
            clients,
            &mut cursor,
            "nominal",
            rate,
            nominal_s,
            &mut totals,
        )?;
        for w in run.windows(rate, LEAD, SUB, Some(READ), latency_ms) {
            p50.push_median(&w);
        }
        for w in run.windows(rate, LEAD, TAIL, Some(READ), latency_ms) {
            p99.push_tail_of(&w);
        }
        late.push_tail_of(&run.sample(rate, LEAD, None, late_ms));
        if spec.write_share > 0.0 {
            for w in run.windows(rate, LEAD, SUB, Some(WRITE), latency_ms) {
                w50.push_median(&w);
            }
            for w in run.windows(rate, LEAD, TAIL, Some(WRITE), latency_ms) {
                w99.push_tail_of(&w);
            }
        }

        // Every rung of the ladder; every op class counts toward the SLO.
        for (i, &rate) in spec.ladder.iter().enumerate() {
            let name = format!("ladder {rate} rps");
            let (run, _) = open_phase(
                cl,
                load,
                clients,
                &mut cursor,
                &name,
                rate,
                rung_s,
                &mut totals,
            )?;
            for w in run.windows(rate, LEAD, TAIL, None, latency_ms) {
                rung_tail[i].push_tail_of(&w);
            }
            let allowed = clients.len() as f64 + BACKLOG_LIMIT * run.scheduled as f64;
            rung_backlog[i].push(run.unsent as f64 / allowed);
        }
    }
    let d = Counts::read(cl).since(&start);
    let cpu = host::cpu_s() - cpu_start;
    check_lateness(&late, "nominal")?;
    rates.require("closed-loop")?;
    p50.require("nominal reads")?;
    p99.require("nominal reads")?;
    if spec.write_share > 0.0 {
        w50.require("nominal writes")?;
        w99.require("nominal writes")?;
    }
    println!("  closed-loop rate per {SUB} s window {} /s", rates.show());
    println!(
        "  nominal {} rps: read p50 per {SUB} s window {} ms",
        spec.nominal_rps,
        p50.show()
    );
    println!(
        "  nominal {} rps: read p{:.1} per {TAIL} s window {} ms ({} reads)",
        spec.nominal_rps,
        p99.pct,
        p99.show(),
        p99.n
    );
    let mut rungs = Vec::new();
    for (i, &rate) in spec.ladder.iter().enumerate() {
        let (t, b) = (&rung_tail[i], &rung_backlog[i]);
        // A rung whose every window stalled out has no tail: it failed.
        let tail = if t.values.is_empty() {
            f64::INFINITY
        } else {
            t.low()
        };
        let score = (tail / spec.p99_limit_ms).max(b.low());
        println!(
            "  ladder {rate} rps: p{:.1} per window {} ms, backlog share per round {}, score {score:.3}",
            t.pct,
            t.show(),
            b.show()
        );
        rungs.push(Rung { rate, score });
    }
    let error_ratio = totals.failed as f64 / totals.attempted.max(1) as f64;
    println!("  setup runs (s): {setup_s:?}");
    let remote_ms = d.get("remote") * workload::remote_fetch_ms();
    let disk_ms = workload::disk_ms(d.get("seeks"), d.get("physical"));
    println!(
        "  misses over {} requests: {} remote hits ({remote_ms:.1} ms), {} disk reads, \
         {} physical reads, {} seeks ({disk_ms:.1} ms emulated)",
        totals.attempted,
        d.get("remote"),
        d.get("disk"),
        d.get("physical"),
        d.get("seeks")
    );
    // The wall-clock metrics swing with other tenants' load on a shared
    // host, and peak memory with the timing of the run (README.md, "Which
    // metrics gate"), so they are printed but kept out of the JSON result,
    // which holds what a regression gate can rely on. The error ratio is
    // the result's `failed` over `attempted`.
    let mut shown: Metrics = vec![
        ("throughput_rps", rates.high(), "1/s"),
        ("p50_ms", p50.low(), "ms"),
        ("p99_ms", p99.low(), "ms"),
        ("slo_rps", stats::slo_rate(&rungs), "1/s"),
        ("error_ratio", error_ratio, "ratio"),
        ("rss_mb", host::peak_rss_mb(), "MB"),
    ];
    if spec.write_share > 0.0 {
        shown.push(("write_p50_ms", w50.low(), "ms"));
        shown.push(("write_p99_ms", w99.low(), "ms"));
    }
    for (name, value, unit) in shown {
        println!("{name:<34} {value:>14.6} {unit}");
    }
    let m: Metrics = vec![
        ("setup_s", stats::median(setup_s), "s"),
        (
            "cpu_us_per_req",
            cpu * 1e6 / totals.attempted.max(1) as f64,
            "us",
        ),
        (
            "miss_ms_per_req",
            (remote_ms + disk_ms) / totals.attempted.max(1) as f64,
            "ms",
        ),
    ];
    Ok((m, totals))
}

/// The traced run: in each round, the nominal phase once with recording
/// off and once with it on; per-layer metrics come from the recorded
/// phases.
fn traced(
    cl: &Cluster,
    spec: &Spec,
    load: &Load,
    clients: &mut [Client],
    secs: f64,
) -> Result<(Metrics, Totals), String> {
    let (n, round_s) = rounds(spec, secs);
    let half = round_s * 0.5;
    let rate = spec.nominal_rps;
    let mut cursor = Cursor(0);
    let mut totals = Totals::default();
    let (mut plain_p50, mut traced_p50, mut late) =
        (Series::default(), Series::default(), Series::default());
    let mut d = Counts::default();
    let mut requests = 0;
    for _ in 0..n {
        let (plain, _) = open_phase(
            cl,
            load,
            clients,
            &mut cursor,
            "untraced",
            rate,
            half,
            &mut totals,
        )?;
        plain_p50.push_median(&plain.sample(rate, LEAD, Some(READ), latency_ms));
        cl.rec.set(true);
        let traced = open_phase(
            cl,
            load,
            clients,
            &mut cursor,
            "traced",
            rate,
            half,
            &mut totals,
        );
        cl.rec.set(false);
        let (run, delta) = traced?;
        d.add(&delta);
        requests += run.timed.len();
        traced_p50.push_median(&run.sample(rate, LEAD, Some(READ), latency_ms));
        late.push_tail_of(&run.sample(rate, LEAD, None, late_ms));
    }
    check_lateness(&late, "traced")?;

    let mut spans = cl.rec.drain();
    span::link(&mut spans, span::parent_kinds);
    let us = |v: Vec<f64>| stats::sorted(v.into_iter().map(|ns| ns / 1e3).collect());
    let p = |v: &[f64]| stats::quantile(v, 0.5);
    let t = |v: &[f64]| stats::tail(v, 99.0).map_or(0.0, |t| t.value);
    let front = us(span::self_times(&spans, Kind::Request, &[Kind::Read]));
    let rt_read = us(span::self_times(
        &spans,
        Kind::Read,
        &[Kind::Fetch, Kind::Send],
    ));
    let rt_write = us(span::self_times(
        &spans,
        Kind::Write,
        &[Kind::Fetch, Kind::Send],
    ));
    let fetch = us(span::durations(&spans, Kind::Fetch));
    let store_read = us(span::durations(&spans, Kind::StoreRead));
    let store_write = us(span::durations(&spans, Kind::StoreWrite));
    println!(
        "  traced: {} spans over {requests} requests; p50 per round untraced {} ms, traced {} ms",
        spans.len(),
        plain_p50.show(),
        traced_p50.show()
    );

    let g = |name: &str| d.get(name);
    let ratio = |x: f64, y: f64| if y > 0.0 { x / y } else { 0.0 };
    let reqs = requests as f64;
    let accesses = g("local") + g("remote") + g("disk");
    let emulated_ms = workload::disk_ms(g("seeks"), g("physical"));
    let store_ms = store_read.iter().chain(&store_write).sum::<f64>() / 1e3;
    let m: Metrics = vec![
        ("front.self_us.p50", p(&front), "us"),
        ("front.self_us.p99", t(&front), "us"),
        (
            "front.handoff_ratio",
            ratio(g("handoffs"), g("dispatched")),
            "ratio",
        ),
        ("front.rejected", g("rejected"), "count"),
        ("rt.read_us.p50", p(&rt_read), "us"),
        ("rt.read_us.p99", t(&rt_read), "us"),
        ("rt.local_hit_ratio", ratio(g("local"), accesses), "ratio"),
        ("rt.remote_hit_ratio", ratio(g("remote"), accesses), "ratio"),
        ("rt.disk_ratio", ratio(g("disk"), accesses), "ratio"),
        (
            "rt.fallback_ratio",
            ratio(g("fallbacks"), g("remote")),
            "ratio",
        ),
        ("rt.forwards_per_req", ratio(g("forwards"), reqs), "count"),
        ("net.fetch_us.p50", p(&fetch), "us"),
        ("net.fetch_us.p99", t(&fetch), "us"),
        (
            "net.fetch_miss_ratio",
            ratio(g("fetch_misses"), g("fetches")),
            "ratio",
        ),
        (
            "net.sends_per_req.forward",
            ratio(g("forward"), reqs),
            "count",
        ),
        (
            "net.sends_per_req.invalidate",
            ratio(g("invalidate"), reqs),
            "count",
        ),
        (
            "net.frames_per_train",
            ratio(g("frames"), g("trains")),
            "count",
        ),
        ("net.teardowns", g("teardowns"), "count"),
        ("disk.read_us.p50", p(&store_read), "us"),
        ("disk.read_us.p99", t(&store_read), "us"),
        ("disk.busy_ms", store_ms + emulated_ms, "ms"),
        (
            "disk.seeks_per_read",
            ratio(g("seeks"), g("physical")),
            "count",
        ),
        (
            "disk.coalesce_ratio",
            ratio(g("coalesce"), g("disk_requests")),
            "ratio",
        ),
        (
            "disk.readahead_hit_ratio",
            ratio(g("readahead_hits"), g("disk_requests")),
            "ratio",
        ),
        ("disk.max_queue_depth", max_queue_depth(cl) as f64, "count"),
        ("gen.late_ms.p99", stats::median(&late.values), "ms"),
        (
            "trace.overhead_ratio",
            ratio(traced_p50.low(), plain_p50.low()),
            "ratio",
        ),
    ];
    // The write path's layers, for the write-back workload only (they do
    // not exist on the read-only workloads, so they stay out of the JSON).
    if spec.write_share > 0.0 {
        let writes: Metrics = vec![
            ("rt.write_us.p50", p(&rt_write), "us"),
            ("rt.write_us.p99", t(&rt_write), "us"),
            ("rt.flushes", g("flushes"), "count"),
            (
                "net.sends_per_req.write_invalidate",
                ratio(g("write_invalidate"), reqs),
                "count",
            ),
            ("disk.write_us.p50", p(&store_write), "us"),
            ("disk.writes", g("disk_writes"), "count"),
        ];
        for (name, value, unit) in writes {
            println!("{name:<34} {value:>14.6} {unit}");
        }
    }
    Ok((m, totals))
}

/// Write-back gate: after a final flush, every acknowledged write is
/// byte-equal in the store, nothing is left dirty and nothing was lost.
fn durability(cl: &Cluster, spec: &Spec, versions: &Versions) -> Result<(), String> {
    if spec.write_share == 0.0 {
        return Ok(());
    }
    cl.mw.flush_dirty();
    cl.mw.quiesce();
    let store: &dyn BlockStore = cl.store.as_ref();
    let bad = versions.unpersisted(store);
    let (dirty, lost) = (cl.mw.dirty_blocks(), cl.mw.lost_writes());
    if !bad.is_empty() || dirty != 0 || !lost.is_empty() {
        return Err(format!(
            "write-back durability: {} acknowledged writes differ in the store (first {:?}), \
             {dirty} still dirty, {} lost",
            bad.len(),
            bad.first(),
            lost.len()
        ));
    }
    println!(
        "  durability: {} acknowledged writes persisted byte-equal",
        versions.writes()
    );
    Ok(())
}
