//! `classify-mix`: a closed loop of classify requests over two Unix
//! socket connections to the real `classify-server` binary, run with
//! `--workers 2` on a store populated before the server starts.
//!
//! The stream is built from seeded random ∆=2 problems (the generator
//! and one-f-step trial filter of `lcl-bench`'s service report). Every
//! block of 20 requests holds, in seeded order:
//!
//! * 14 hits: label-permuted respellings of classes published in the
//!   store before the server starts. They put the median on protocol,
//!   parse, canonicalize, store read and snapshot decode.
//! * 5 misses: classes never seen before (`steps: 1`). They put p99 on
//!   the queue, the supervised build and two fsync'd store writes.
//! * 1 deepen: a published class asked for one more f-step. Only
//!   classes whose trial build completed that step are used, because a
//!   failing step costs the server its whole retry schedule.
//!
//! Hits draw from classes that no miss or deepen touches, and every
//! miss and deepen uses its class once, so no request can coalesce with
//! another and the server's counters are a function of the stream.
//! Every terminal line is checked against the generator's own tower
//! fingerprint for that class and depth.
//!
//! The classes come from a fixed pool seed; `--seed` sets the order of
//! the stream, which published class each hit respells and how. Classes
//! differ widely in cost (a hit reads and decodes its class's published
//! tower, a miss builds one), so a pool drawn from `--seed` would move
//! the latencies with the seed rather than with the code.
//!
//! The bounded job metric is the server's CPU time per request, per
//! round; the request latencies are reported beside it, unbounded (see
//! `report::end_to_end`).

use std::collections::BTreeSet;
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use lcl::{canonical_key, canonical_text_form, relabeled, LclProblem, OutLabel};
use lcl_core::{ReOptions, ReTower, TowerSnapshot};
use lcl_faults::Budget;
use lcl_obs::Trace;
use lcl_recover::{supervise_tower_from, RetryPolicy};
use lcl_rng::SmallRng;
use lcl_service::{
    encode_request, encode_stats_request, parse_response, ClassifyRequest, ClassifyResult,
    Response, StatsReply, TowerStore,
};

use crate::report::{
    children_cpu, end_to_end, load_figures, median, median_mb, ms, peak_rss_mb, process_cpu, us,
    Metrics, Outcome, Recorder,
};
use crate::Args;

/// Published classes the hits respell.
const HIT_CLASSES: usize = 256;
/// One block of the stream: 14 hits, 5 misses, 1 deepen.
const BLOCK: [Kind; 20] = {
    let mut block = [Kind::Hit; 20];
    block[14] = Kind::Miss;
    block[15] = Kind::Miss;
    block[16] = Kind::Miss;
    block[17] = Kind::Miss;
    block[18] = Kind::Miss;
    block[19] = Kind::Deepen;
    block
};
/// Requests per round. Every round starts a fresh server on a fresh
/// copy of the populated store, so its misses and deepens are new to
/// that server while the pool of classes stays small: ∆=2 problems on
/// at most 3 labels fall into only about 4,300 structural classes, of
/// which about 830 complete a second f-step.
const ROUND: usize = 2_000;
/// Requests of the first round before the counter checkpoint; the
/// per-layer counts are read there, so they depend on the seed only.
const PHASE1: usize = 1_000;
/// Seed of the class pool, the same for every `--seed`.
const POOL_SEED: u64 = 0x5eed_c1a5;
/// Candidate problems drawn before the class space counts as exhausted.
const MAX_DRAWS: usize = 400_000;
const CONNECTIONS: usize = 2;
const SERVER_WORKERS: &str = "2";
/// Server start-ups timed for `setup_s` before the first round (the
/// wall time of every round's start-up is kept too).
const SETUP_SPAWNS: usize = 5;
const READ_TIMEOUT: Duration = Duration::from_secs(30);
/// Hits and misses whose layer calls the traced run replays.
const REPLAY_HITS: usize = 200;
const REPLAY_MISSES: usize = 100;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Kind {
    Hit,
    Miss,
    Deepen,
}

impl Kind {
    fn name(self) -> &'static str {
        match self {
            Kind::Hit => "hit",
            Kind::Miss => "miss",
            Kind::Deepen => "deepen",
        }
    }
}

/// A structural class with its untimed reference builds.
struct Class {
    problem: LclProblem,
    key: String,
    depth1: TowerSnapshot,
    fp1: String,
    /// Fingerprint after a second f-step, when the trial asked for one
    /// and it completed.
    fp2: Option<String>,
}

struct Req {
    kind: Kind,
    text: String,
    steps: u64,
    expect: String,
    key: String,
}

fn shuffle<T>(items: &mut [T], rng: &mut SmallRng) {
    for i in (1..items.len()).rev() {
        let j = (rng.next_u64() % (i as u64 + 1)) as usize;
        items.swap(i, j);
    }
}

/// One seeded random ∆=2 problem over `s` output labels: nonempty
/// degree-1/degree-2 configuration sets, nonempty edge set, one input
/// admitting everything.
fn random_problem(i: usize, s: usize, rng: &mut SmallRng) -> LclProblem {
    let mut pick = |universe: Vec<Vec<OutLabel>>| -> BTreeSet<Vec<OutLabel>> {
        let mut chosen: BTreeSet<Vec<OutLabel>> = universe
            .iter()
            .filter(|_| rng.next_u64().is_multiple_of(2))
            .cloned()
            .collect();
        if chosen.is_empty() {
            let fallback = (rng.next_u64() % universe.len() as u64) as usize;
            chosen.insert(universe[fallback].clone());
        }
        chosen
    };
    let singletons: Vec<Vec<OutLabel>> = (0..s).map(|a| vec![OutLabel(a as u32)]).collect();
    let mut pairs = Vec::new();
    for a in 0..s {
        for b in a..s {
            pairs.push(vec![OutLabel(a as u32), OutLabel(b as u32)]);
        }
    }
    let d1 = pick(singletons);
    let d2 = pick(pairs.clone());
    let edges: BTreeSet<(OutLabel, OutLabel)> =
        pick(pairs).into_iter().map(|p| (p[0], p[1])).collect();
    let g = vec![(0..s).map(|a| OutLabel(a as u32)).collect()];
    lcl::problem::from_parts(
        format!("rnd-{i}"),
        2,
        lcl::Alphabet::numbered("I", 1),
        lcl::Alphabet::numbered("L", s),
        vec![BTreeSet::new(), d1, d2],
        edges,
        g,
    )
}

/// The trial filter: the text form must round-trip and one f-step must
/// complete; with `deepen`, a second f-step is tried as well.
fn trial(problem: &LclProblem, deepen: bool) -> Option<Class> {
    let parsed = LclProblem::parse(&problem.to_text()).ok()?;
    let mut tower = ReTower::new(canonical_text_form(&parsed));
    tower.push_f(ReOptions::default()).ok()?;
    let depth1 = tower.snapshot();
    let fp1 = depth1.fingerprint();
    let fp2 = (deepen && tower.push_f(ReOptions::default()).is_ok()).then(|| tower.fingerprint());
    Some(Class {
        problem: problem.clone(),
        key: canonical_key(problem),
        depth1,
        fp1,
        fp2,
    })
}

struct Pool {
    hits: Vec<Class>,
    deepens: Vec<Class>,
    misses: Vec<Class>,
}

/// Draws distinct classes until the hit, deepen and miss sets are full.
/// Trials run in parallel, but classes are assigned in draw order, so
/// the pool depends on the seed only.
fn pool(rng: &mut SmallRng, deepens: usize, misses: usize) -> Result<Pool, String> {
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut pool = Pool {
        hits: Vec::new(),
        deepens: Vec::new(),
        misses: Vec::new(),
    };
    let mut seen = BTreeSet::new();
    let mut draws = 0usize;
    while pool.hits.len() < HIT_CLASSES
        || pool.deepens.len() < deepens
        || pool.misses.len() < misses
    {
        let want_deepen = pool.hits.len() >= HIT_CLASSES && pool.deepens.len() < deepens;
        let mut candidates = Vec::new();
        while candidates.len() < 64 {
            draws += 1;
            if draws > MAX_DRAWS {
                return Err(format!("class space exhausted after {MAX_DRAWS} draws"));
            }
            let s = 2 + (rng.next_u64() % 2) as usize;
            let p = random_problem(draws, s, rng);
            if seen.insert(canonical_key(&p)) {
                candidates.push(p);
            }
        }
        let chunk = candidates.len().div_ceil(threads);
        let tried: Vec<Option<Class>> = std::thread::scope(|s| {
            let handles: Vec<_> = candidates
                .chunks(chunk)
                .map(|c| {
                    s.spawn(move || c.iter().map(|p| trial(p, want_deepen)).collect::<Vec<_>>())
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| {
                    h.join()
                        .expect("why: trial builds report errors, not panics")
                })
                .collect()
        });
        for class in tried.into_iter().flatten() {
            if pool.hits.len() < HIT_CLASSES {
                pool.hits.push(class);
            } else if class.fp2.is_some() && pool.deepens.len() < deepens {
                pool.deepens.push(class);
            } else if pool.misses.len() < misses {
                pool.misses.push(class);
            }
        }
    }
    Ok(pool)
}

fn respelled(class: &Class, rng: &mut SmallRng) -> String {
    let mut order: Vec<u32> = (0..class.problem.output_alphabet().len() as u32).collect();
    shuffle(&mut order, rng);
    relabeled(&class.problem, &order).to_text()
}

fn stream(pool: &Pool, blocks: usize, rng: &mut SmallRng) -> Vec<Req> {
    let mut out = Vec::with_capacity(blocks * BLOCK.len());
    let (mut misses, mut deepens) = (pool.misses.iter(), pool.deepens.iter());
    for _ in 0..blocks {
        let mut block = BLOCK;
        shuffle(&mut block, rng);
        for kind in block {
            let (class, text, steps, expect) = match kind {
                Kind::Hit => {
                    let c = &pool.hits[(rng.next_u64() % HIT_CLASSES as u64) as usize];
                    (c, respelled(c, rng), 1, c.fp1.clone())
                }
                Kind::Miss => {
                    let c = misses
                        .next()
                        .expect("why: the pool holds 5 misses per block");
                    (c, c.problem.to_text(), 1, c.fp1.clone())
                }
                Kind::Deepen => {
                    let c = deepens
                        .next()
                        .expect("why: the pool holds 1 deepen per block");
                    let fp2 = c.fp2.clone().expect("why: deepen classes completed step 2");
                    (c, respelled(c, rng), 2, fp2)
                }
            };
            out.push(Req {
                kind,
                text,
                steps,
                expect,
                key: class.key.clone(),
            });
        }
    }
    out
}

/// A running `classify-server`; dropping it kills and reaps the child.
struct Server {
    child: Child,
    socket: PathBuf,
}

impl Server {
    /// Starts the server and waits until its socket accepts; returns
    /// the server and the wall time that took.
    fn spawn(store: &Path, socket: &Path) -> Result<(Self, Duration), String> {
        let exe = std::env::current_exe().map_err(|e| e.to_string())?;
        let bin = exe.with_file_name("classify-server");
        let _ = std::fs::remove_file(socket);
        let t0 = Instant::now();
        let child = Command::new(&bin)
            .arg(store)
            .arg("--socket")
            .arg(socket)
            .arg("--workers")
            .arg(SERVER_WORKERS)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", bin.display()))?;
        let mut server = Server {
            child,
            socket: socket.to_path_buf(),
        };
        loop {
            if UnixStream::connect(socket).is_ok() {
                return Ok((server, t0.elapsed()));
            }
            if let Ok(Some(status)) = server.child.try_wait() {
                return Err(format!("classify-server exited during start-up: {status}"));
            }
            if t0.elapsed() > READ_TIMEOUT {
                return Err("classify-server did not accept within 30 s".into());
            }
            std::thread::sleep(Duration::from_micros(200));
        }
    }

    fn connect(&self) -> Result<Conn, String> {
        let stream = UnixStream::connect(&self.socket).map_err(|e| e.to_string())?;
        stream
            .set_read_timeout(Some(READ_TIMEOUT))
            .map_err(|e| e.to_string())?;
        let reader = BufReader::new(stream.try_clone().map_err(|e| e.to_string())?);
        Ok(Conn {
            reader,
            writer: stream,
            wire_bytes: 0,
            broken: false,
        })
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        let _ = std::fs::remove_file(&self.socket);
    }
}

struct Conn {
    reader: BufReader<UnixStream>,
    writer: UnixStream,
    /// Bytes written and read on this connection.
    wire_bytes: u64,
    /// Set after an I/O error or timeout: the connection may still hold
    /// a late reply, so it sends nothing more.
    broken: bool,
}

impl Conn {
    /// Writes one request line and reads until its terminal line;
    /// returns the decoded terminal response and its raw text.
    fn roundtrip(&mut self, line: &str) -> Result<(Response, String), String> {
        self.writer
            .write_all(format!("{line}\n").as_bytes())
            .map_err(|e| e.to_string())?;
        self.wire_bytes += line.len() as u64 + 1;
        loop {
            let mut reply = String::new();
            let n = self
                .reader
                .read_line(&mut reply)
                .map_err(|e| e.to_string())?;
            if n == 0 {
                return Err("server closed the connection".into());
            }
            self.wire_bytes += n as u64;
            let resp = parse_response(reply.trim_end()).map_err(|e| e.to_string())?;
            if !matches!(resp, Response::Progress { .. }) {
                return Ok((resp, reply));
            }
        }
    }

    fn stats(&mut self) -> Result<StatsReply, String> {
        match self.roundtrip(&encode_stats_request(u64::MAX))? {
            (Response::Stats(stats), _) => Ok(stats),
            (other, _) => Err(format!("expected a stats line, got {other:?}")),
        }
    }
}

fn result_ok(req: &Req, id: usize, r: &ClassifyResult) -> bool {
    r.id == id as u64
        && r.gave_up.is_none()
        && r.tower_fingerprint == req.expect
        && r.cached == (req.kind == Kind::Hit)
        && (r.resumed_from_level > 0) == (req.kind == Kind::Deepen)
}

/// What one connection did in one phase.
struct Drive {
    rec: Recorder,
    attempted: u64,
    failed: u64,
    /// Terminal lines by request index (traced runs only).
    replies: Vec<(usize, String)>,
}

/// One connection's closed loop: take the next request index, send it,
/// wait for its terminal line, check it, repeat.
fn drive(
    conn: &mut Conn,
    reqs: &[Req],
    next: &AtomicUsize,
    end: usize,
    deadline: Option<Instant>,
    traced: bool,
) -> Drive {
    let mut d = Drive {
        rec: Recorder::new("connection", traced),
        attempted: 0,
        failed: 0,
        replies: Vec::new(),
    };
    while !conn.broken {
        if deadline.is_some_and(|t| Instant::now() >= t) {
            break;
        }
        let i = next.fetch_add(1, Ordering::SeqCst);
        if i >= end {
            break;
        }
        let req = &reqs[i];
        let line = encode_request(&ClassifyRequest {
            id: i as u64,
            problem: req.text.clone(),
            steps: req.steps,
        });
        d.attempted += 1;
        match d.rec.time(req.kind.name(), |_| conn.roundtrip(&line)) {
            Ok((Response::Result(r), raw)) => {
                if !result_ok(req, i, &r) {
                    d.failed += 1;
                }
                if traced {
                    d.replies.push((i, raw));
                }
            }
            Ok(_) => d.failed += 1,
            Err(e) => {
                // The connection's state is unknown after an I/O error
                // or timeout; the other connection carries on.
                eprintln!("classify-mix: request {i}: {e}");
                d.failed += 1;
                conn.broken = true;
            }
        }
    }
    d
}

struct Phase {
    attempted: u64,
    failed: u64,
    wall: Duration,
    replies: Vec<(usize, String)>,
    /// One past the last request index sent.
    end: usize,
}

fn run_phase(
    conns: &mut [Conn],
    reqs: &[Req],
    range: std::ops::Range<usize>,
    deadline: Option<Instant>,
    rec: &mut Recorder,
    name: &str,
) -> Phase {
    let next = AtomicUsize::new(range.start);
    let end = range.end;
    let traced = rec.traced();
    let t0 = Instant::now();
    rec.time(name, |rec| {
        let drives: Vec<Drive> = std::thread::scope(|s| {
            let handles: Vec<_> = conns
                .iter_mut()
                .map(|c| {
                    let next = &next;
                    s.spawn(move || drive(c, reqs, next, end, deadline, traced))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("why: the client loop does not panic"))
                .collect()
        });
        let mut phase = Phase {
            attempted: 0,
            failed: 0,
            wall: t0.elapsed(),
            replies: Vec::new(),
            end: next.load(Ordering::SeqCst).min(end),
        };
        for mut d in drives {
            phase.attempted += d.attempted;
            phase.failed += d.failed;
            phase.replies.append(&mut d.replies);
            rec.absorb(d.rec);
        }
        phase
    })
}

/// The server counters the checks compare, in `stats_counts` order.
const STATS: [&str; 7] = [
    "requests",
    "cache_hits",
    "coalesced",
    "computed",
    "resumed",
    "gave_up",
    "rejected",
];

fn stats_counts(s: &StatsReply) -> [u64; 7] {
    [
        s.requests,
        s.cache_hits,
        s.coalesced,
        s.computed,
        s.resumed,
        s.gave_up,
        s.rejected,
    ]
}

/// Server counters a stream prefix must produce: hits are served from
/// the store, misses and deepens are computed once each, deepens resume
/// from the published tower, and nothing coalesces, fails or is refused.
fn expected_stats(reqs: &[Req]) -> [u64; 7] {
    let count = |k: Kind| reqs.iter().filter(|r| r.kind == k).count() as u64;
    let (hits, misses, deepens) = (count(Kind::Hit), count(Kind::Miss), count(Kind::Deepen));
    [reqs.len() as u64, hits, 0, misses + deepens, deepens, 0, 0]
}

/// The server's counters, read on a connection of their own (a request
/// connection may have failed with a reply still in flight); `None`,
/// with the reason on stderr, when they cannot be read.
fn read_stats(server: &Server) -> Option<StatsReply> {
    match server.connect().and_then(|mut c| c.stats()) {
        Ok(stats) => Some(stats),
        Err(e) => {
            eprintln!("classify-mix: stats: {e}");
            None
        }
    }
}

fn stats_match(stats: &StatsReply, reqs: &[Req]) -> bool {
    let (got, want) = (stats_counts(stats), expected_stats(reqs));
    if got != want {
        eprintln!("classify-mix: server counters {got:?}, the mix implies {want:?} ({STATS:?})");
    }
    got == want
}

/// Total bytes of the regular files directly under `dir`.
fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .flatten()
                .filter_map(|e| e.metadata().ok())
                .filter(|m| m.is_file())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

fn copy_store(from: &Path, to: &Path) -> Result<(), String> {
    std::fs::create_dir_all(to).map_err(|e| e.to_string())?;
    for entry in std::fs::read_dir(from)
        .map_err(|e| e.to_string())?
        .flatten()
    {
        let name = entry.file_name();
        if name != "store.lock" {
            std::fs::copy(entry.path(), to.join(name)).map_err(|e| e.to_string())?;
        }
    }
    Ok(())
}

/// Server counters, wire bytes and store growth after `PHASE1`.
struct Checkpoint {
    stats: Option<StatsReply>,
    wire_bytes: u64,
    store_bytes: u64,
}

/// One round: a server on `store`, the stream `reqs`, checked against
/// the server's counters at the end (and after `PHASE1` in round 0).
struct Round {
    phases: Vec<Phase>,
    rss_mb: f64,
    checks_passed: bool,
    /// Round 0 only.
    checkpoint: Option<Checkpoint>,
}

/// What the traced run reads from round 0: its stream, its terminal
/// lines and its checkpoint.
struct FirstRound {
    reqs: Vec<Req>,
    replies: Vec<(usize, String)>,
    checkpoint: Checkpoint,
}

fn run_round(
    server: &Server,
    store: &Path,
    reqs: &[Req],
    first: bool,
    deadline: Instant,
    rec: &mut Recorder,
) -> Result<Round, String> {
    let mut conns = (0..CONNECTIONS)
        .map(|_| server.connect())
        .collect::<Result<Vec<_>, _>>()?;
    let mut round = Round {
        phases: Vec::new(),
        rss_mb: 0.0,
        checks_passed: true,
        checkpoint: None,
    };
    let mut start = 0;
    if first {
        let store_bytes0 = dir_bytes(store);
        let p1 = run_phase(&mut conns, reqs, 0..PHASE1, None, rec, "phase-1");
        let wire_bytes = conns.iter().map(|c| c.wire_bytes).sum();
        let stats = read_stats(server);
        round.checks_passed &= stats
            .as_ref()
            .is_some_and(|s| stats_match(s, &reqs[..p1.end]));
        round.checkpoint = Some(Checkpoint {
            stats,
            wire_bytes,
            store_bytes: dir_bytes(store) - store_bytes0,
        });
        start = p1.end;
        round.phases.push(p1);
    }
    let phase = run_phase(
        &mut conns,
        reqs,
        start..reqs.len(),
        Some(deadline),
        rec,
        "round",
    );
    round.checks_passed &= read_stats(server).is_some_and(|s| stats_match(&s, &reqs[..phase.end]));
    round.phases.push(phase);
    round.rss_mb = peak_rss_mb(&server.child.id().to_string());
    Ok(round)
}

pub fn run(args: &Args) -> Result<(Outcome, Trace), String> {
    let mut rec = Recorder::new("classify-mix", args.trace);
    let mut rng = SmallRng::seed_from_u64(args.seed);
    let blocks = ROUND / BLOCK.len();
    let pool = rec.time("generate", |_| {
        pool(&mut SmallRng::seed_from_u64(POOL_SEED), blocks, 5 * blocks)
    })?;
    let template = args.scratch.join("store-template");
    rec.time("populate", |_| {
        let store = TowerStore::open(&template).map_err(|e| e.to_string())?;
        for c in pool.hits.iter().chain(&pool.deepens) {
            store.put(&c.key, &c.depth1).map_err(|e| e.to_string())?;
        }
        Ok::<_, String>(())
    })?;
    let socket = args.scratch.join("cs.sock");
    let mut setup = Vec::new();
    let mut setup_cpu = Vec::new();
    let setup_store = args.scratch.join("store-setup");
    copy_store(&template, &setup_store)?;
    for _ in 0..SETUP_SPAWNS {
        let cpu0 = children_cpu();
        let (server, wall) = rec.time("service.spawn", |_| Server::spawn(&setup_store, &socket))?;
        drop(server);
        setup.push(wall);
        // The server's CPU time until it accepted (the drop reaps it).
        setup_cpu.push(children_cpu() - cpu0);
    }

    // Rounds run until `--seconds` of loop time have passed (a last
    // sliver under 100 ms is not worth a restart); restarts between
    // rounds are not timed.
    let (mut attempted, mut failed, mut checks_passed) = (0u64, 0u64, true);
    let mut loop_wall = Duration::ZERO;
    let mut rss = Vec::new();
    // Server CPU time per request of each round, and whether the round
    // ran its whole stream.
    let mut cpu_per_request = Vec::new();
    let mut rounds = 0;
    let mut first: Option<FirstRound> = None;
    let budget = Duration::from_secs_f64(args.seconds);
    let first_store = args.scratch.join("store-0");
    while rounds == 0 || loop_wall + Duration::from_millis(100) < budget {
        let reqs = stream(&pool, blocks, &mut rng);
        let store = if first.is_none() {
            first_store.clone()
        } else {
            args.scratch.join("store-r")
        };
        let _ = std::fs::remove_dir_all(&store);
        copy_store(&template, &store)?;
        let (server, wall) = rec.time("service.spawn", |_| Server::spawn(&store, &socket))?;
        setup.push(wall);
        let deadline = Instant::now() + (budget - loop_wall);
        let cpu0 = process_cpu(server.child.id());
        let round = run_round(&server, &store, &reqs, first.is_none(), deadline, &mut rec)?;
        let cpu1 = process_cpu(server.child.id());
        rounds += 1;
        drop(server);
        let complete = round.phases.last().is_some_and(|p| p.end == reqs.len());
        let served: u64 = round.phases.iter().map(|p| p.attempted).sum();
        match (cpu0, cpu1) {
            (Some(cpu0), Some(cpu1)) if served > 0 => {
                cpu_per_request.push(((cpu1 - cpu0) / served as u32, complete));
            }
            _ => {
                eprintln!("classify-mix: the server's CPU time could not be read");
                checks_passed = false;
            }
        }
        // A round cut short by the deadline has not reached its peak.
        if complete || rss.is_empty() {
            rss.push(round.rss_mb);
        }
        checks_passed &= round.checks_passed;
        let mut replies = Vec::new();
        for mut p in round.phases {
            attempted += p.attempted;
            failed += p.failed;
            loop_wall += p.wall;
            replies.append(&mut p.replies);
        }
        if let Some(checkpoint) = round.checkpoint {
            first = Some(FirstRound {
                reqs,
                replies,
                checkpoint,
            });
        }
    }
    let first = first.expect("why: the loop runs at least one round");
    // Zeros when the counters could not be read (the run is then marked
    // incorrect already).
    let counts1 = first.checkpoint.stats.as_ref().map_or([0; 7], stats_counts);

    let latencies: Vec<Duration> = ["hit", "miss", "deepen"]
        .iter()
        .flat_map(|k| rec.samples(k).iter().copied())
        .collect();
    println!(
        "classify-mix: {attempted} requests in {rounds} rounds, {:.2} s; p99 over {} samples; median ms: hit {:.3} ({}), miss {:.3} ({}), deepen {:.3} ({})",
        loop_wall.as_secs_f64(),
        latencies.len(),
        ms(rec.median("hit")),
        rec.samples("hit").len(),
        ms(rec.median("miss")),
        rec.samples("miss").len(),
        ms(rec.median("deepen")),
        rec.samples("deepen").len(),
    );
    // Rounds cut short by the deadline count only when no round ran its
    // whole stream.
    let any_complete = cpu_per_request.iter().any(|r| r.1);
    let per_request: Vec<Duration> = cpu_per_request
        .iter()
        .filter(|r| r.1 || !any_complete)
        .map(|r| r.0)
        .collect();
    let e2e = end_to_end(&setup_cpu, attempted, failed, median(&per_request));
    let figures = load_figures(
        &setup,
        &latencies,
        (attempted - failed) as f64 / loop_wall.as_secs_f64(),
    );

    let mut layers = Metrics::default();
    if args.trace {
        replay(
            &mut rec,
            &first.reqs,
            &first.replies,
            &first_store,
            &args.scratch.join("store-copy"),
        )?;
        let us_of = |rec: &Recorder, name: &str| us(rec.median(name));
        let ms_of = |rec: &Recorder, name: &str| ms(rec.median(name));
        for (name, call) in [
            ("service.protocol.encode_us", "service.protocol.encode"),
            ("service.protocol.decode_us", "service.protocol.decode"),
            ("lcl.parse_us", "lcl.parse"),
            ("lcl.canonicalize_us", "lcl.canonicalize"),
            ("service.store.get_us", "service.store.get"),
            ("core.snapshot.decode_us", "core.snapshot.decode"),
            ("core.snapshot.encode_us", "core.snapshot.encode"),
        ] {
            layers.push(name, us_of(&rec, call), "us");
        }
        for (name, call) in [
            ("core.tower.push_f_ms", "core.tower.push_f"),
            ("recover.supervise_ms", "recover.supervise"),
            ("service.store.checkpoint_ms", "service.store.checkpoint"),
            ("service.store.put_ms", "service.store.put"),
            ("service.store.open_ms", "service.store.open"),
        ] {
            layers.push(name, ms_of(&rec, call), "ms");
        }
        for (name, value) in STATS.iter().zip(counts1) {
            layers.count(format!("service.{name}"), value);
        }
        layers.push(
            "service.hit_ratio",
            counts1[1] as f64 / counts1[0].max(1) as f64,
            "fraction",
        );
        let c = &first.checkpoint;
        layers.push("service.store.bytes_written", c.store_bytes as f64, "bytes");
        layers.push("service.wire.bytes", c.wire_bytes as f64, "bytes");
        let hit_path: f64 = [
            "service.protocol.encode",
            "service.protocol.decode",
            "lcl.parse",
            "lcl.canonicalize",
            "service.store.get",
        ]
        .iter()
        .map(|c| ms_of(&rec, c))
        .sum();
        let miss_path: f64 = [
            "service.protocol.encode",
            "service.protocol.decode",
            "lcl.parse",
            "lcl.canonicalize",
            "service.store.checkpoint",
            "recover.supervise",
            "core.snapshot.encode",
            "service.store.put",
        ]
        .iter()
        .map(|c| ms_of(&rec, c))
        .sum();
        layers.push(
            "service.unattributed_hit_ms",
            ms(median(rec.samples("hit"))) - hit_path,
            "ms",
        );
        layers.push(
            "service.unattributed_miss_ms",
            ms(median(rec.samples("miss"))) - miss_path,
            "ms",
        );
    }
    Ok((
        Outcome {
            attempted,
            failed,
            checks_passed,
            end_to_end: e2e,
            per_layer: layers,
            figures,
            peak_rss_mb: median_mb(rss),
        },
        rec.finish("classify-mix"),
    ))
}

/// Replays, off the timed path, the layer calls that sampled hits and
/// misses made inside the server, each under its own span: the
/// benchmark cannot reach into the server process, so it calls the same
/// public functions on the same inputs, against a copy of the store
/// (the live store holds a single-writer lock).
fn replay(
    rec: &mut Recorder,
    reqs: &[Req],
    replies: &[(usize, String)],
    store_dir: &Path,
    copy_dir: &Path,
) -> Result<(), String> {
    copy_store(store_dir, copy_dir)?;
    for _ in 0..3 {
        let store = rec.time("service.store.open", |_| TowerStore::open(copy_dir));
        drop(store.map_err(|e| e.to_string())?);
    }
    let store = TowerStore::open(copy_dir).map_err(|e| e.to_string())?;
    rec.time("replay", |rec| {
        let mut hits = 0;
        let mut misses = 0;
        for (i, raw) in replies {
            let req = &reqs[*i];
            let sample = match req.kind {
                Kind::Hit => hits < REPLAY_HITS,
                Kind::Miss => misses < REPLAY_MISSES,
                Kind::Deepen => false,
            };
            if !sample {
                continue;
            }
            rec.time(&format!("replay-{}", req.kind.name()), |rec| {
                rec.time("service.protocol.encode", |_| {
                    encode_request(&ClassifyRequest {
                        id: *i as u64,
                        problem: req.text.clone(),
                        steps: req.steps,
                    })
                });
                rec.time("service.protocol.decode", |_| {
                    parse_response(raw.trim_end())
                })
                .map_err(|e| e.to_string())?;
                let parsed = rec
                    .time("lcl.parse", |_| LclProblem::parse(&req.text))
                    .map_err(|e| e.to_string())?;
                let (key, canon) = rec.time("lcl.canonicalize", |_| {
                    (canonical_key(&parsed), canonical_text_form(&parsed))
                });
                if key != req.key {
                    return Err(format!("request {i}: canonical key differs from its class"));
                }
                if req.kind == Kind::Hit {
                    hits += 1;
                    let snap = rec
                        .time("service.store.get", |_| store.get(&key))
                        .map_err(|e| e.to_string())?
                        .ok_or(format!(
                            "request {i}: published class missing from the store"
                        ))?;
                    let text = snap.to_json();
                    rec.time("core.snapshot.decode", |_| TowerSnapshot::parse(&text))
                        .map_err(|e| e.to_string())?;
                } else {
                    misses += 1;
                    let mut tower = ReTower::new(canon.clone());
                    rec.time("core.tower.push_f", |_| tower.push_f(ReOptions::default()))
                        .map_err(|e| e.to_string())?;
                    let built = rec.time("recover.supervise", |_| {
                        supervise_tower_from(
                            ReTower::new(canon),
                            1,
                            ReOptions::default(),
                            Budget::unlimited(),
                            RetryPolicy::default(),
                            None,
                        )
                    });
                    if built.gave_up.is_some() || built.tower.fingerprint() != req.expect {
                        return Err(format!("request {i}: replayed build differs"));
                    }
                    let snap = rec.time("core.snapshot.encode", |_| {
                        let snap = built.tower.snapshot();
                        let _ = snap.to_json();
                        snap
                    });
                    rec.time("service.store.checkpoint", |_| {
                        store.checkpoint(&key, &snap)
                    })
                    .map_err(|e| e.to_string())?;
                    rec.time("service.store.put", |_| store.put(&key, &snap))
                        .map_err(|e| e.to_string())?;
                }
                Ok(())
            })?;
        }
        Ok(())
    })
}
