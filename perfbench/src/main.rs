//! End-to-end benchmark of the windowed measure/spill/serve pipeline.
//!
//! Runs the in-process equivalent of `measure --window --spill --serve`
//! and times it from the outside, around calls into each crate's public
//! API: `traffic` (trace generation, `KeySpec::project`), `engine`
//! (`EngineSession`: route, ring, shard worker, rotate/collect/merge),
//! `core` (`EpochRun::to_epoch`, `SharedEpochDir::append`) and `serve`
//! (`Publisher`, `Service`, `wire`). See README.md for the workloads,
//! the metrics and the thread budget.
//!
//! ```text
//! perfbench --workload NAME --seed N --seconds S --trace 0|1
//!           [--smoke] [--corrupt-answer]
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics": {name: {value, unit}}}`,
//! printed only after every correctness gate has passed. `--trace 0`
//! prints the end-to-end metrics, `--trace 1` the per-layer ledger.
//! `--smoke` shrinks every size for tests; `--corrupt-answer` alters one
//! served answer before its check, which must make the gate fire.

mod gate;
mod ledger;

use engine::{EngineConfig, ShardedCocoSketch};
use gate::{Digest, Oracle, Query};
use hashkit::FastMap;
use ledger::{median, ms, tail, Tracer};
use serve::wire::ReadWrite;
use serve::{Answer, Client, Publisher, Response, Select, Server, Service};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use traffic::{presets, FiveTuple, KeyBytes, KeySpec, Packet, Trace};

/// Every epoch seals full 5-tuple tables, as `measure` does.
const FULL: KeySpec = KeySpec::FIVE_TUPLE;
/// The six partial keys of the paper's evaluation.
const SIX: [KeySpec; 6] = KeySpec::PAPER_SIX;
/// Sketch hash seed: a fixed part of the measured configuration.
const SKETCH_SEED: u64 = 0xC0C0;
/// Heavy-hitter threshold as a share of an epoch's weight (the paper's).
const HH_FRAC: f64 = 1e-4;
/// Packets projected and pushed per call on the ingest path.
const BATCH: usize = 1024;
/// Set-up repetitions; `setup_s` is their median.
const SETUP_REPS: usize = 5;
/// Where runs keep their epoch directories, sockets and span dumps,
/// relative to the directory the benchmark runs in.
const WORK_DIR: &str = ".bench_work";

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Preset {
    Caida,
    Mawi,
}

/// One workload's fixed shape. Counts scale with `--seconds` through
/// constant rates, so sample counts never depend on the program's speed.
#[derive(Clone, Debug)]
struct Plan {
    preset: Preset,
    /// Trace = preset at 1/scale of the paper's size, replayed cyclically.
    scale: usize,
    /// Sketch memory of the single shard, bytes.
    memory: usize,
    /// Packets per epoch.
    window: usize,
    /// Epochs ingested.
    epochs: usize,
    /// Epochs the service (and so the process) keeps in memory.
    keep: usize,
    /// The ingest belongs to set-up (it is repeated with the trace
    /// generation and its time counts in `setup_s`).
    setup_ingest: bool,
    /// Ask the six keys of each epoch right after publishing it.
    mixed: bool,
    /// Newest retained epochs the query phase asks about.
    query_epochs: usize,
    /// Whether the query phase asks each (epoch, key) pair for the
    /// first time, one pair per round (else every pair was asked
    /// during ingest and the phase has `query_epochs * 6` rounds).
    fresh: bool,
    /// Repeated partial queries per round.
    repeats: usize,
    /// Hierarchy (`Multi`) requests, spread evenly over the rounds.
    hier: usize,
    /// `Window` requests, spread evenly over the rounds.
    windows: usize,
    /// Evicted (cold) epochs each window reaches back over.
    window_cold: u64,
    /// Retained (warm) epochs each window covers.
    window_warm: u64,
    /// Newest epochs whose six answers are scored for accuracy.
    scored: usize,
}

const WORKLOADS: [&str; 3] = ["caida_ingest", "mawi_query", "caida_mixed"];

fn plan(workload: &str, seconds: u64, smoke: bool) -> Option<Plan> {
    let s = seconds.max(1) as usize;
    let caida = Plan {
        preset: Preset::Caida,
        scale: 8,
        memory: 500 * 1024,
        window: 1 << 20,
        epochs: 10 * s,
        keep: 16,
        setup_ingest: false,
        mixed: false,
        query_epochs: 16,
        fresh: true,
        repeats: 6,
        hier: 3 * s,
        windows: 3 * s,
        window_cold: 4,
        window_warm: 4,
        scored: 8,
    };
    let mut p = match workload {
        "caida_ingest" => caida,
        "caida_mixed" => Plan {
            mixed: true,
            fresh: false,
            epochs: 6 * s,
            ..caida
        },
        "mawi_query" => Plan {
            preset: Preset::Mawi,
            scale: 8,
            memory: 2 << 20,
            window: 1 << 19,
            epochs: 24,
            keep: 12,
            setup_ingest: true,
            mixed: false,
            query_epochs: 12,
            fresh: true,
            repeats: 2,
            hier: 2 * s,
            windows: 2 * s,
            window_cold: 6,
            window_warm: 6,
            scored: 12,
        },
        _ => return None,
    };
    if smoke {
        p.scale = 1000;
        p.memory = 64 * 1024;
        p.window = 8_000;
        p.epochs = p.epochs.min(10);
        p.keep = 4;
        p.query_epochs = 3;
        p.repeats = p.repeats.min(2);
        p.hier = p.hier.min(2);
        p.windows = p.windows.min(2);
        p.window_cold = 2;
        p.window_warm = 2;
        p.scored = 2;
    }
    Some(p)
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    smoke: bool,
    corrupt: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10,
        trace: false,
        smoke: false,
        corrupt: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                };
            }
            "--smoke" => args.smoke = true,
            "--corrupt-answer" => args.corrupt = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "unknown workload {:?}; expected one of {WORKLOADS:?}",
            args.workload
        ));
    }
    if !(1..=3600).contains(&args.seconds) {
        return Err("--seconds must be in 1..=3600".into());
    }
    Ok(args)
}

/// Why a run stopped without printing numbers.
enum Fail {
    /// Bad arguments.
    Usage(String),
    /// A correctness gate failed.
    Gate(String),
    /// The program under test failed (spill error, socket error, ...).
    Program(String),
}

/// The input stream: a generated trace, replayed cyclically, with
/// prefix sums of weight so any slice's weight is known exactly.
struct Stream {
    trace: Trace,
    prefix: Vec<u64>,
}

impl Stream {
    fn generate(plan: &Plan, seed: u64) -> Self {
        let trace = match plan.preset {
            Preset::Caida => presets::caida_like(plan.scale, seed),
            Preset::Mawi => presets::mawi_like(plan.scale, seed),
        };
        let mut prefix = Vec::with_capacity(trace.packets.len() + 1);
        let mut acc = 0u64;
        prefix.push(0);
        for p in &trace.packets {
            acc += u64::from(p.weight);
            prefix.push(acc);
        }
        Self { trace, prefix }
    }

    fn len(&self) -> usize {
        self.trace.packets.len()
    }

    /// Weight of the `len` packets starting at `start`, wrapping around.
    fn weight(&self, start: usize, len: usize) -> u64 {
        let n = self.len();
        let whole = (len / n) as u64 * self.prefix[n];
        let (a, b) = (start, start + len % n);
        whole
            + if b <= n {
                self.prefix[b] - self.prefix[a]
            } else {
                self.prefix[n] - self.prefix[a] + self.prefix[b - n]
            }
    }

    /// The `len` packets starting at `start`, wrapping around.
    fn slice(&self, start: usize, len: usize) -> Trace {
        let packets: Vec<Packet> = (0..len)
            .map(|i| self.trace.packets[(start + i) % self.len()])
            .collect();
        Trace { packets }
    }
}

/// The system under test for one run: an epoch directory, the service
/// it publishes to, and (traced runs) an in-process twin service over
/// the same epochs, so in-process timings never warm the wire service.
struct Pipeline {
    dir: cocosketch::SharedEpochDir,
    publisher: Publisher,
    svc: Arc<Service>,
    twin: Option<(Publisher, Arc<Service>)>,
}

impl Pipeline {
    fn open(root: &Path, keep: usize, traced: bool) -> Result<Self, Fail> {
        let _ = std::fs::remove_dir_all(root);
        std::fs::create_dir_all(root)
            .map_err(|e| Fail::Program(format!("creating {}: {e}", root.display())))?;
        let (dir, _report) = cocosketch::SharedEpochDir::open(root.join("epochs"))
            .map_err(|e| Fail::Program(format!("opening the epoch directory: {e}")))?;
        let (publisher, svc) = serve::service_with_cold(keep, dir.reader());
        let twin = traced.then(|| serve::service_with_cold(keep, dir.reader()));
        Ok(Self {
            dir,
            publisher,
            svc,
            twin,
        })
    }
}

#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
enum Kind {
    Fresh,
    Partial,
    Multi,
    Window,
    Score,
}

impl Kind {
    fn wire_span(self) -> &'static str {
        match self {
            Kind::Fresh => "wire.fresh",
            Kind::Partial => "wire.partial",
            Kind::Multi => "wire.multi",
            Kind::Window => "wire.window",
            Kind::Score => "wire.score",
        }
    }

    fn inproc_span(self) -> &'static str {
        match self {
            Kind::Fresh => "serve.fresh",
            Kind::Partial => "serve.partial",
            Kind::Multi => "serve.multi",
            Kind::Window => "serve.window",
            Kind::Score => "serve.score",
        }
    }
}

/// Everything a run accumulates besides the system under test.
struct Ctx {
    tracer: Tracer,
    oracle: Oracle,
    hierarchy: Vec<KeySpec>,
    /// The wire server's address, and the one connection to it.
    addr: String,
    client: Option<Client<Box<dyn ReadWrite>>>,
    corrupt: bool,
    attempted: u64,
    failed: u64,
    response_bytes: u64,
    cold_reads: u64,
    next_request: u64,
    /// Wire round trips, ms, by kind.
    wire: BTreeMap<Kind, Vec<f64>>,
    /// In-process (twin service) times, ms, by kind.
    inproc: BTreeMap<Kind, Vec<f64>>,
}

impl Ctx {
    fn new(pipe: &Pipeline, keep: usize, traced: bool, corrupt: bool) -> Self {
        let hierarchy = hhh::src_hierarchy();
        Self {
            tracer: Tracer::new(traced),
            oracle: Oracle::new(hierarchy.clone(), keep, pipe.dir.reader()),
            hierarchy,
            addr: String::new(),
            client: None,
            corrupt,
            attempted: 0,
            failed: 0,
            response_bytes: 0,
            cold_reads: 0,
            next_request: 0,
            wire: BTreeMap::new(),
            inproc: BTreeMap::new(),
        }
    }

    /// Issue one query over the wire (and, in traced runs, through the
    /// twin service in-process), time it, and check every answer
    /// against the oracle. Failed requests are counted, not timed.
    fn ask(
        &mut self,
        pipe: &Pipeline,
        kind: Kind,
        query: Query,
    ) -> Result<Option<cocosketch::Epoch>, Fail> {
        let id = self.next_request;
        self.next_request += 1;
        self.attempted += 1;
        self.cold_reads += query.ids().filter(|&e| !self.oracle.is_retained(e)).count() as u64;
        let request = query.request(&self.hierarchy);
        // Connect on first use: the server drops a connection idle for
        // longer than its I/O timeout, as during a long ingest phase.
        if self.client.is_none() {
            let client = serve::connect(&self.addr)
                .map_err(|e| Fail::Program(format!("connecting to {}: {e}", self.addr)))?;
            self.client = Some(client);
        }
        let client = self
            .client
            .as_mut()
            .ok_or_else(|| Fail::Program("no wire connection".into()))?;
        let open = self.tracer.begin(kind.wire_span(), id);
        let started = Instant::now();
        let response = client.call(&request);
        let took = started.elapsed();
        self.tracer.end(open);
        let mut served = None;
        match response {
            Ok(Response::Answer(mut answer)) => {
                self.wire.entry(kind).or_default().push(ms(took));
                if self.tracer.on {
                    self.response_bytes += 1 + cocosketch::epoch::encode(&answer).len() as u64;
                }
                if std::mem::take(&mut self.corrupt) {
                    corrupt(&mut answer);
                }
                self.oracle
                    .check(&query, &Digest::of_wire(&answer))
                    .map_err(Fail::Gate)?;
                served = Some(answer);
            }
            Ok(other) => {
                eprintln!("request {query:?} failed: {other:?}");
                self.failed += 1;
            }
            Err(e) => {
                eprintln!("request {query:?} failed: {e}");
                self.failed += 1;
                // A broken connection is replaced on the next request.
                self.client = None;
            }
        }
        if let Some((_, twin)) = &pipe.twin {
            self.attempted += 1;
            let open = self.tracer.begin(kind.inproc_span(), id);
            let started = Instant::now();
            let answers: Option<Vec<Answer>> = match query {
                Query::Partial(e, spec) => twin.partial(Select::Id(e), &spec).map(|a| vec![a]),
                Query::Multi(e) => twin.multi(Select::Id(e), &self.hierarchy, 0),
                Query::Window(first, last, spec) => {
                    twin.window(first, last, &spec).map(|(a, _)| vec![a])
                }
            };
            let took = started.elapsed();
            self.tracer.end(open);
            match answers {
                Some(answers) => {
                    self.inproc.entry(kind).or_default().push(ms(took));
                    self.oracle
                        .check(&query, &Digest::of_answers(&answers))
                        .map_err(Fail::Gate)?;
                }
                None => {
                    eprintln!("in-process request {query:?} failed");
                    self.failed += 1;
                }
            }
        }
        Ok(served)
    }
}

/// Bump one count of one served answer (the gate's self-test).
fn corrupt(answer: &mut cocosketch::Epoch) {
    if let Some(table) = answer.tables.first_mut() {
        let mut rows = table.rows().to_vec();
        match rows.first_mut() {
            Some(row) => row.1 += 1,
            None => rows.push((FULL.project(&FiveTuple::new(1, 2, 3, 4, 6)), 1)),
        }
        *table = cocosketch::FlowTable::new(*table.full_spec(), rows);
    }
}

/// What one ingest pass measured.
#[derive(Default)]
struct Ingest {
    packets: u64,
    seal_ms: Vec<f64>,
    /// Epoch id -> stream offset of its first packet.
    starts: BTreeMap<u64, usize>,
    rows: u64,
    /// Packets and pipeline time of traced / untraced epochs.
    traced: (u64, Duration),
    untraced: (u64, Duration),
}

impl Ingest {
    fn mpps(&self) -> f64 {
        let wall = self.traced.1 + self.untraced.1;
        self.packets as f64 / wall.as_secs_f64() / 1e6
    }
}

/// The windowed pipeline: project -> push_batch -> rotate/collect every
/// `window` packets -> to_epoch -> append -> publish, all on this
/// (producer) thread, with one shard worker. The ingest wall time runs
/// from the first project to the last publish, less the checks made
/// between epochs and, in the mixed workload, the queries.
fn ingest(
    ctx: &mut Ctx,
    pipe: &mut Pipeline,
    stream: &Stream,
    plan: &Plan,
    traced: bool,
) -> Result<Ingest, Fail> {
    let engine = ShardedCocoSketch::with_memory(
        plan.memory,
        EngineConfig {
            threads: 1,
            key_bytes: FULL.key_bytes(),
            seed: SKETCH_SEED,
            ..EngineConfig::default()
        },
    );
    let mut session = engine.session();
    let mut out = Ingest::default();
    let mut buf: Vec<(KeyBytes, u64)> = Vec::with_capacity(BATCH);
    let n = stream.len();
    let mut pos = 0usize;
    for e in 0..plan.epochs as u64 {
        // Alternate traced and untraced epochs: their rates give the
        // tracing overhead with drift cancelled.
        ctx.tracer.on = traced && e % 2 == 0;
        let tracer = &mut ctx.tracer;
        let start = pos;
        let epoch_started = Instant::now();
        let mut left = plan.window;
        while left > 0 {
            let take = left.min(BATCH).min(n - pos);
            let packets = &stream.trace.packets[pos..pos + take];
            let open = tracer.begin("traffic.project", e);
            buf.extend(
                packets
                    .iter()
                    .map(|p| (FULL.project(&p.flow), u64::from(p.weight))),
            );
            tracer.end(open);
            let open = tracer.begin("engine.push", e);
            session.push_batch(&buf);
            tracer.end(open);
            buf.clear();
            pos = (pos + take) % n;
            left -= take;
        }
        let seal_started = Instant::now();
        let pending = tracer.span("engine.rotate", e, || session.rotate());
        let run = tracer.span("engine.collect", e, || session.collect(pending));
        let epoch = Arc::new(tracer.span("engine.to_epoch", e, || run.to_epoch(FULL)));
        tracer
            .span("core.append", e, || pipe.dir.append(&epoch))
            .map_err(|err| Fail::Program(format!("spilling epoch {e}: {err}")))?;
        tracer.span("serve.publish", e, || {
            pipe.publisher.publish(Arc::clone(&epoch))
        });
        let done = Instant::now();
        ctx.tracer.on = traced;
        out.seal_ms.push(ms(done - seal_started));
        let side = if traced && e % 2 == 0 {
            &mut out.traced
        } else {
            &mut out.untraced
        };
        side.0 += plan.window as u64;
        side.1 += done - epoch_started;

        // Untimed: the epoch must hold exactly its slice of the stream.
        let want = (plan.window as u64, stream.weight(start, plan.window));
        if epoch.id != e || (epoch.packets, epoch.weight) != want {
            return Err(Fail::Gate(format!(
                "epoch {e} sealed as id {} with (packets, weight) = ({}, {}), want {want:?}",
                epoch.id, epoch.packets, epoch.weight
            )));
        }
        out.packets += epoch.packets;
        out.rows += epoch.primary().len() as u64;
        out.starts.insert(e, start);
        ctx.oracle.sealed(&epoch);
        if let Some((twin, _)) = &mut pipe.twin {
            twin.publish(Arc::clone(&epoch));
        }
        if plan.mixed {
            for spec in SIX {
                ctx.oracle
                    .expect(&Query::Partial(e, spec))
                    .map_err(Fail::Gate)?;
            }
            for spec in SIX {
                ctx.ask(pipe, Kind::Fresh, Query::Partial(e, spec))?;
            }
        }
    }
    let rest = session.finish();
    if rest.packets != 0 {
        return Err(Fail::Gate(format!(
            "{} packets left over after the last seal",
            rest.packets
        )));
    }
    Ok(out)
}

/// The fixed query schedule of one closed-loop client, in rounds so
/// that every kind of request is sampled across the whole phase (a
/// shared host's speed drifts over seconds). A round asks one never-asked
/// (epoch, key) pair when the plan has fresh queries, then `repeats`
/// pairs asked before, then its share of the hierarchy and window
/// requests.
fn schedule(ids: &[u64], plan: &Plan) -> Result<Vec<(Kind, Query)>, Fail> {
    let targets = &ids[ids.len().saturating_sub(plan.query_epochs)..];
    let pairs: Vec<Query> = targets
        .iter()
        .flat_map(|&e| SIX.map(|spec| Query::Partial(e, spec)))
        .collect();
    let oldest_warm = ids[0];
    if oldest_warm < plan.window_cold {
        return Err(Fail::Usage(
            "too few evicted epochs for the window queries".into(),
        ));
    }
    let window = (
        oldest_warm - plan.window_cold,
        oldest_warm + plan.window_warm - 1,
    );
    let rounds = pairs.len();
    let mut out = Vec::new();
    let (mut repeated, mut hier, mut windows) = (0usize, 0usize, 0usize);
    for round in 0..rounds {
        let asked = if plan.fresh {
            out.push((Kind::Fresh, pairs[round].clone()));
            round + 1
        } else {
            rounds
        };
        for _ in 0..plan.repeats {
            out.push((Kind::Partial, pairs[repeated % asked].clone()));
            repeated += 1;
        }
        while hier * rounds < (round + 1) * plan.hier {
            out.push((Kind::Multi, Query::Multi(targets[hier % targets.len()])));
            hier += 1;
        }
        while windows * rounds < (round + 1) * plan.windows {
            let spec = SIX[windows % SIX.len()];
            out.push((Kind::Window, Query::Window(window.0, window.1, spec)));
            windows += 1;
        }
    }
    Ok(out)
}

/// Run the schedule, with every expected answer computed beforehand.
fn query_phase(ctx: &mut Ctx, pipe: &Pipeline, plan: &Plan) -> Result<(), Fail> {
    let schedule = schedule(&ctx.oracle.retained_ids(), plan)?;
    for (_, query) in &schedule {
        ctx.oracle.expect(query).map_err(Fail::Gate)?;
    }
    for (kind, query) in schedule {
        ctx.ask(pipe, kind, query)?;
    }
    Ok(())
}

/// Heavy-hitter accuracy of the served answers for the six keys over
/// the newest `plan.scored` epochs, against exact counts of the same
/// packets, asked again after the timed phase. Returns mean (F1, ARE)
/// over keys and epochs.
fn score(
    ctx: &mut Ctx,
    pipe: &Pipeline,
    stream: &Stream,
    plan: &Plan,
    starts: &BTreeMap<u64, usize>,
) -> Result<(f64, f64), Fail> {
    let ids = ctx.oracle.retained_ids();
    let mut scores = Vec::new();
    for &e in &ids[ids.len().saturating_sub(plan.scored)..] {
        let start = starts[&e];
        let full = traffic::truth::exact_counts(&stream.slice(start, plan.window), &FULL);
        let threshold = ((stream.weight(start, plan.window) as f64 * HH_FRAC).ceil() as u64).max(1);
        for spec in SIX {
            let Some(answer) = ctx.ask(pipe, Kind::Score, Query::Partial(e, spec))? else {
                continue;
            };
            let estimates: FastMap<KeyBytes, u64> =
                answer.primary().rows().iter().copied().collect();
            let exact = traffic::truth::project_counts(&full, &FULL, &spec);
            scores.push(tasks::metrics::evaluate(&estimates, &exact, threshold));
        }
    }
    if scores.is_empty() {
        return Err(Fail::Program("no heavy-hitter answer was served".into()));
    }
    let mean = tasks::metrics::Accuracy::mean(&scores);
    Ok((mean.f1, mean.are))
}

/// The wire server on its own thread, serving one connection.
struct Serving {
    handle: JoinHandle<std::io::Result<usize>>,
    addr: String,
}

fn start_server(ctx: &mut Ctx, svc: &Arc<Service>, root: &Path) -> Result<Serving, Fail> {
    let addr = format!("unix:{}", root.join("wire.sock").display());
    let server = Server::bind(&addr).map_err(|e| Fail::Program(format!("binding {addr}: {e}")))?;
    let addr = server.addr().to_string();
    let svc = Arc::clone(svc);
    let handle = std::thread::spawn(move || server.run(svc));
    ctx.addr.clone_from(&addr);
    Ok(Serving { handle, addr })
}

/// Ask the server to stop (over the run's connection, or a new one if
/// that one broke) and join its thread.
fn stop_server(ctx: &mut Ctx, serving: Serving) {
    let stopped = ctx.client.take().is_some_and(|mut c| c.shutdown().is_ok());
    if !stopped {
        if let Ok(mut c) = serve::connect(&serving.addr) {
            let _ = c.shutdown();
        }
    }
    match serving.handle.join() {
        Ok(Ok(_)) => {}
        Ok(Err(e)) => eprintln!("wire server stopped with an error: {e}"),
        Err(_) => eprintln!("wire server thread panicked"),
    }
}

/// One set-up: generate the trace and, for a set-up-ingest workload,
/// ingest it into a fresh pipeline.
struct Setup {
    stream: Stream,
    ready: Option<(Pipeline, Ctx, Ingest)>,
}

fn setup(plan: &Plan, args: &Args, root: &Path) -> Result<Setup, Fail> {
    let stream = Stream::generate(plan, args.seed);
    let ready = if plan.setup_ingest {
        let mut pipe = Pipeline::open(root, plan.keep, args.trace)?;
        let mut ctx = Ctx::new(&pipe, plan.keep, args.trace, args.corrupt);
        let ingested = ingest(&mut ctx, &mut pipe, &stream, plan, args.trace)?;
        Some((pipe, ctx, ingested))
    } else {
        None
    };
    Ok(Setup { stream, ready })
}

type Metrics = Vec<(String, f64, &'static str)>;

struct Outcome {
    attempted: u64,
    failed: u64,
    metrics: Metrics,
}

fn run(args: &Args, root: &Path) -> Result<Outcome, Fail> {
    let plan = plan(&args.workload, args.seconds, args.smoke).ok_or_else(|| {
        Fail::Usage(format!(
            "unknown workload {:?}; expected one of {WORKLOADS:?}",
            args.workload
        ))
    })?;
    eprintln!(
        "{}: seed {}, {} s, available parallelism {}",
        args.workload,
        args.seed,
        args.seconds,
        std::thread::available_parallelism().map_or(0, usize::from)
    );
    let mut setup_s = Vec::with_capacity(SETUP_REPS);
    let mut setup_ingests = Vec::new();
    let mut last = None;
    for _ in 0..SETUP_REPS {
        drop(last.take());
        let started = Instant::now();
        let mut done = setup(&plan, args, root)?;
        setup_s.push(started.elapsed().as_secs_f64());
        if let Some((_, _, ingested)) = done.ready.as_mut() {
            setup_ingests.push((ingested.mpps(), std::mem::take(&mut ingested.seal_ms)));
        }
        last = Some(done);
    }
    let Setup { stream, ready } = last.ok_or_else(|| Fail::Program("no set-up ran".into()))?;
    let (mut pipe, mut ctx, ingested) = match ready {
        Some(ready) => ready,
        None => {
            let pipe = Pipeline::open(root, plan.keep, args.trace)?;
            let ctx = Ctx::new(&pipe, plan.keep, args.trace, args.corrupt);
            (pipe, ctx, Ingest::default())
        }
    };
    let serving = start_server(&mut ctx, &pipe.svc, root)?;
    let result = measure(&mut ctx, &mut pipe, &stream, &plan, args, ingested);
    stop_server(&mut ctx, serving);
    let (ingested, f1, are) = result?;

    // The gates that need the whole run.
    let reopened = ctx.oracle.check_segments().map_err(Fail::Gate)?;
    if reopened != plan.epochs {
        return Err(Fail::Gate(format!(
            "{reopened} epochs reopened, {} sealed",
            plan.epochs
        )));
    }
    let info = pipe.svc.info();
    ctx.failed += info.cold_errors;
    if let Some((_, twin)) = &pipe.twin {
        ctx.failed += twin.info().cold_errors;
    }

    let (ingest_mpps, seal_ms) = if plan.setup_ingest {
        let rates: Vec<f64> = setup_ingests.iter().map(|(r, _)| *r).collect();
        let seals: Vec<f64> = setup_ingests.into_iter().flat_map(|(_, s)| s).collect();
        (median(&rates), seals)
    } else {
        (ingested.mpps(), ingested.seal_ms.clone())
    };
    let usage = ledger::usage();
    let mut m: Metrics = Vec::new();
    if args.trace {
        ledger_metrics(&mut m, &ctx, &pipe, &ingested, &info, usage, &args.workload)?;
        m.push(("tasks.hh_are".into(), are, "ratio"));
    } else {
        let wire = |k: Kind| ctx.wire.get(&k).map_or(&[][..], Vec::as_slice);
        let ok =
            (ctx.attempted - ctx.failed.min(ctx.attempted)) as f64 / ctx.attempted.max(1) as f64;
        for (name, value, unit) in [
            ("setup_s", median(&setup_s), "s"),
            ("ingest_mpps", ingest_mpps, "Mpps"),
            ("seal_p50_ms", median(&seal_ms), "ms"),
            ("fresh_p50_ms", median(wire(Kind::Fresh)), "ms"),
            ("partial_p50_ms", median(wire(Kind::Partial)), "ms"),
            ("hier_p50_ms", median(wire(Kind::Multi)), "ms"),
            ("window_p50_ms", median(wire(Kind::Window)), "ms"),
            ("hh_f1", f1, "ratio"),
            ("peak_rss_mb", usage.peak_rss_mb, "MiB"),
            ("ok_ratio", ok, "ratio"),
        ] {
            m.push((name.to_string(), value, unit));
        }
        for (kind, samples) in &ctx.wire {
            let (value, pct) = tail(samples);
            eprintln!(
                "{kind:?}: {} wire samples, p50 {:.4} ms, tail p{pct:.1} {value:.4} ms",
                samples.len(),
                median(samples)
            );
        }
        eprintln!(
            "ingest: {} packets in {} epochs, {} seal samples",
            ingested.packets,
            plan.epochs,
            seal_ms.len()
        );
    }
    Ok(Outcome {
        attempted: ctx.attempted,
        failed: ctx.failed,
        metrics: m,
    })
}

/// Everything after set-up: (timed ingest,) the query phase, scoring.
fn measure(
    ctx: &mut Ctx,
    pipe: &mut Pipeline,
    stream: &Stream,
    plan: &Plan,
    args: &Args,
    ingested: Ingest,
) -> Result<(Ingest, f64, f64), Fail> {
    let started = Instant::now();
    let ingested = if plan.setup_ingest {
        ingested
    } else {
        ingest(ctx, pipe, stream, plan, args.trace)?
    };
    let ingested_at = started.elapsed();
    query_phase(ctx, pipe, plan)?;
    let queried_at = started.elapsed();
    let (f1, are) = score(ctx, pipe, stream, plan, &ingested.starts)?;
    eprintln!(
        "phases: ingest {:.1} s, queries {:.1} s, scoring {:.1} s",
        ingested_at.as_secs_f64(),
        (queried_at - ingested_at).as_secs_f64(),
        (started.elapsed() - queried_at).as_secs_f64()
    );
    Ok((ingested, f1, are))
}

/// The per-layer ledger of a traced run, from the spans (self times)
/// and counts; also writes the spans out.
fn ledger_metrics(
    m: &mut Metrics,
    ctx: &Ctx,
    pipe: &Pipeline,
    ingested: &Ingest,
    info: &serve::ServiceInfo,
    usage: ledger::Usage,
    workload: &str,
) -> Result<(), Fail> {
    let self_ns = ctx.tracer.self_ns();
    let ns = |name: &str| self_ns.get(name).map_or(&[][..], Vec::as_slice);
    let total = |name: &str| ns(name).iter().sum::<u64>() as f64;
    let in_ms = |name: &str| {
        ns(name)
            .iter()
            .map(|&v| v as f64 / 1e6)
            .collect::<Vec<f64>>()
    };
    let traced_packets = ingested.traced.0.max(1) as f64;
    let producer = [
        "traffic.project",
        "engine.push",
        "engine.rotate",
        "engine.collect",
        "engine.to_epoch",
        "core.append",
        "serve.publish",
    ];
    let covered: f64 = producer.iter().map(|name| total(name)).sum();
    let coverage = covered / (ingested.traced.1.as_nanos().max(1) as f64);
    if (coverage - 1.0).abs() > 0.10 {
        return Err(Fail::Gate(format!(
            "ledger: producer self times cover {:.1}% of the traced ingest wall time",
            coverage * 100.0
        )));
    }
    let rate = |(packets, wall): (u64, Duration)| packets as f64 / wall.as_secs_f64().max(1e-9);
    let overhead = 100.0 * (1.0 - rate(ingested.traced) / rate(ingested.untraced));

    let mut put =
        |name: &str, value: f64, unit: &'static str| m.push((name.to_string(), value, unit));
    put(
        "traffic.project_ns",
        total("traffic.project") / traced_packets,
        "ns",
    );
    put(
        "engine.push_ns",
        total("engine.push") / traced_packets,
        "ns",
    );
    put(
        "engine.rotate_us",
        median(&in_ms("engine.rotate")) * 1e3,
        "us",
    );
    put("engine.collect_ms", median(&in_ms("engine.collect")), "ms");
    put(
        "engine.to_epoch_ms",
        median(&in_ms("engine.to_epoch")),
        "ms",
    );
    put("core.append_ms", median(&in_ms("core.append")), "ms");
    put("core.append_tail_ms", tail(&in_ms("core.append")).0, "ms");
    put(
        "serve.publish_us",
        median(&in_ms("serve.publish")) * 1e3,
        "us",
    );
    let inproc = |k: Kind| ctx.inproc.get(&k).map_or(&[][..], Vec::as_slice);
    let wire = |k: Kind| ctx.wire.get(&k).map_or(&[][..], Vec::as_slice);
    for (kind, name) in [
        (Kind::Fresh, "fresh"),
        (Kind::Partial, "partial"),
        (Kind::Multi, "multi"),
        (Kind::Window, "window"),
    ] {
        put(&format!("serve.{name}_ms"), median(inproc(kind)), "ms");
        put(
            &format!("serve.wire_{name}_ms"),
            median(wire(kind)) - median(inproc(kind)),
            "ms",
        );
    }
    put("wire.fresh_tail_ms", tail(wire(Kind::Fresh)).0, "ms");
    put("wire.partial_tail_ms", tail(wire(Kind::Partial)).0, "ms");
    put("serve.multi_tail_ms", tail(inproc(Kind::Multi)).0, "ms");
    put("serve.window_tail_ms", tail(inproc(Kind::Window)).0, "ms");
    put("ledger.coverage", coverage, "ratio");
    put("trace.overhead_pct", overhead, "%");
    let segment_bytes: u64 = pipe
        .dir
        .reader()
        .segments()
        .map_err(|e| Fail::Program(format!("reading the manifest: {e}")))?
        .iter()
        .map(|s| s.bytes)
        .sum();
    put("engine.packets", ingested.packets as f64, "count");
    put("engine.epochs", ingested.starts.len() as f64, "count");
    put("core.rows", ingested.rows as f64, "count");
    put("core.segment_bytes", segment_bytes as f64, "bytes");
    put("serve.response_bytes", ctx.response_bytes as f64, "bytes");
    put("serve.projector_hits", info.cache.hits as f64, "count");
    put("serve.projector_misses", info.cache.misses as f64, "count");
    put("serve.cold_reads", ctx.cold_reads as f64, "count");
    put("proc.user_s", usage.user_s, "s");
    put("proc.sys_s", usage.sys_s, "s");
    put("proc.invol_ctx", usage.invol_ctx as f64, "count");

    // One file per workload, replaced by its next traced run (written
    // aside and renamed, so concurrent runs never interleave lines).
    let spans = Path::new(WORK_DIR).join("spans");
    let file = spans.join(format!("{workload}.tsv"));
    let aside = spans.join(format!("{workload}.tsv.{}", std::process::id()));
    std::fs::create_dir_all(&spans)
        .and_then(|()| std::fs::write(&aside, ctx.tracer.dump()))
        .and_then(|()| std::fs::rename(&aside, &file))
        .map_err(|e| Fail::Program(format!("writing {}: {e}", file.display())))?;
    eprintln!("spans written to {}", file.display());
    Ok(())
}

fn json(outcome: &Outcome) -> Result<String, String> {
    let mut metrics = Vec::with_capacity(outcome.metrics.len());
    for (name, value, unit) in &outcome.metrics {
        if !value.is_finite() {
            return Err(format!("metric {name} is not a finite number ({value})"));
        }
        metrics.push(format!(
            "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
        ));
    }
    Ok(format!(
        "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.attempted.max(1),
        outcome.failed,
        metrics.join(", ")
    ))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("perfbench: {msg}");
            return ExitCode::from(2);
        }
    };
    let root: PathBuf = Path::new(WORK_DIR).join(format!(
        "{}-{}-{}",
        args.workload,
        args.seed,
        std::process::id()
    ));
    let result = run(&args, &root);
    let _ = std::fs::remove_dir_all(&root);
    match result.map_err(|fail| match fail {
        Fail::Usage(msg) => (2, format!("usage: {msg}")),
        Fail::Gate(msg) => (3, format!("correctness gate failed: {msg}")),
        Fail::Program(msg) => (1, format!("run failed: {msg}")),
    }) {
        Ok(outcome) => match json(&outcome) {
            Ok(line) => {
                println!("{line}");
                ExitCode::SUCCESS
            }
            Err(msg) => {
                eprintln!("perfbench: {msg}");
                ExitCode::from(1)
            }
        },
        Err((code, msg)) => {
            eprintln!("perfbench: {msg}");
            ExitCode::from(code)
        }
    }
}
