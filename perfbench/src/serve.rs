//! `serve-socket`: the real `rbb-serve --socket` daemon with its real
//! clock, driven by one client connection in a closed loop with
//! [`OUTSTANDING`] requests in flight. The daemon's whole response stream
//! must equal an in-process `Session` replay of the same request lines.

use std::collections::VecDeque;
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use rbb_serve::{MockClock, Session};
use rbb_sim::{build_engine, ScenarioSpec};

use crate::estimate::{chunk_rate, latency_p50_p99, median, Chunk};
use crate::gen::{digest, scenario_json, spec_seed, Digest, Op, Requests};
use crate::host::{peak_rss_mib, voluntary_switches};
use crate::run::{secs, traced_setups, Ctx, Run, Setups, SETUP_WARMUP};
use crate::trace::Tracer;

/// Requests in flight on the connection.
const OUTSTANDING: usize = 8;
/// Bins of the daemon's engine (as in `specs/serve-session.json`).
const N: u64 = 4096;
/// Socket file names, relative to the work directory: the measured
/// session's daemon and the daemons whose setup is timed.
const SOCKET: &str = "d.sock";
const SETUP_SOCKET: &str = "s.sock";
const SPEC: &str = "serve-session.json";

/// Requests per chunk: the fewest whose p99 has ten samples beyond it.
fn chunk_requests(ctx: &Ctx) -> u64 {
    ctx.pick(1_000, 100)
}

/// Untimed requests before the first chunk.
fn warmup_requests(ctx: &Ctx) -> u64 {
    ctx.pick(20_000, 1_000)
}

/// A running daemon; killed and reaped if dropped before it exits.
struct Daemon {
    child: Child,
    stream: UnixStream,
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if matches!(self.child.try_wait(), Ok(None)) {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

impl Daemon {
    /// Spawns the daemon in `dir` on socket `name` and connects to it.
    fn spawn(bin: &Path, dir: &Path, name: &str) -> Result<Self, String> {
        let socket = dir.join(name);
        let _ = std::fs::remove_file(&socket);
        let mut child = Command::new(bin)
            .args(["--socket", name, "--spec", SPEC])
            .current_dir(dir)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .spawn()
            .map_err(|e| format!("spawning {}: {e}", bin.display()))?;
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            if let Ok(stream) = UnixStream::connect(&socket) {
                return Ok(Self { child, stream });
            }
            if let Ok(Some(status)) = child.try_wait() {
                return Err(format!("daemon exited before listening: {status}"));
            }
            if Instant::now() > deadline {
                let _ = child.kill();
                let _ = child.wait();
                return Err("daemon did not listen within 30 s".to_string());
            }
            // Polls without sleeping: a sleep's timer slack (about 50 µs)
            // would round the spawn → listen time to its own grain.
            std::thread::yield_now();
        }
    }

    /// Asks the daemon to shut down and waits for it to exit.
    fn shutdown(mut self) -> Result<(), String> {
        self.stream
            .write_all(b"{\"op\":\"shutdown\"}\n")
            .map_err(|e| format!("shutdown: {e}"))?;
        let mut line = String::new();
        BufReader::new(&self.stream)
            .read_line(&mut line)
            .map_err(|e| format!("shutdown: {e}"))?;
        let status = self.child.wait().map_err(|e| format!("waiting: {e}"))?;
        if !status.success() || !line.starts_with("{\"ok\":true") {
            return Err(format!("daemon shutdown: {status}, answered {line}"));
        }
        Ok(())
    }
}

/// A setup of the daemon, timed.
type SetupFn = fn() -> Result<f64, String>;

/// For sessions that time no setups.
const NO_SETUPS: Option<&mut Setups<SetupFn>> = None;

/// Spawn → first response: what a user waits before the first answer.
fn time_setup(bin: &Path, dir: &Path) -> Result<f64, String> {
    let t = Instant::now();
    let daemon = Daemon::spawn(bin, dir, SETUP_SOCKET)?;
    (&daemon.stream)
        .write_all(b"{\"op\":\"query\"}\n")
        .map_err(|e| format!("first request: {e}"))?;
    let mut line = String::new();
    BufReader::new(&daemon.stream)
        .read_line(&mut line)
        .map_err(|e| format!("first response: {e}"))?;
    let wall = secs(t);
    if !line.starts_with("{\"ok\":true") {
        return Err(format!("first response: {line}"));
    }
    daemon.shutdown()?;
    Ok(wall)
}

/// One chunk of a socket session.
struct SocketChunk {
    requests: u64,
    placements: u64,
    secs: f64,
    /// Per-request latency, µs.
    latencies: Vec<f64>,
    /// Digest of the chunk's response lines.
    digest: u64,
}

impl SocketChunk {
    fn new(capacity: u64) -> Self {
        Self {
            requests: 0,
            placements: 0,
            secs: 0.0,
            latencies: Vec::with_capacity(capacity as usize),
            digest: 0,
        }
    }
}

/// What one socket session saw. Chunk 0 holds the warmup requests.
struct SocketRun {
    chunks: Vec<SocketChunk>,
    /// Requests answered after the warmup.
    requests: u64,
    not_ok: u64,
    /// Wall seconds after the warmup.
    wall: f64,
    /// Voluntary context switches of the daemon over the session.
    sleeps: u64,
    peak_rss_mib: f64,
    /// One span per request when traced.
    spans: Option<Tracer>,
}

/// Runs one closed-loop session on a fresh daemon: `warmup` requests,
/// then whole chunks until `seconds` have passed or `max_requests` are
/// answered. When a setup of `setups` is due at a chunk boundary, the
/// session lets its requests in flight drain, runs the setup, and starts
/// the next chunk's clock after it.
fn session<F: FnMut() -> Result<f64, String>>(
    ctx: &Ctx,
    bin: &Path,
    warmup: u64,
    seconds: f64,
    max_requests: u64,
    mut tracer: Option<Tracer>,
    mut setups: Option<&mut Setups<F>>,
) -> Result<SocketRun, String> {
    let chunk = chunk_requests(ctx);
    let daemon = Daemon::spawn(bin, &ctx.work_dir, SOCKET)?;
    let pid = daemon.child.id();
    let mut reader = BufReader::with_capacity(1 << 16, &daemon.stream);
    let mut writer = &daemon.stream;
    let mut reqs = Requests::new(ctx.seed, N);
    let mut inflight: VecDeque<(Instant, Op, Option<usize>)> = VecDeque::new();
    let mut buf = Vec::with_capacity(64);
    let mut line = String::with_capacity(256);
    let mut sent = 0u64;
    let mut answered = 0u64;
    let mut not_ok = 0u64;
    let mut chunks = Vec::new();
    let mut cur = SocketChunk::new(chunk);
    let mut digest = Digest::default();
    let mut chunk_start = Instant::now();
    let mut start = Instant::now();
    let sleeps0 = voluntary_switches(pid).unwrap_or(0);

    let mut send = |sent: &mut u64, inflight: &mut VecDeque<_>, tracer: &mut Option<Tracer>| {
        buf.clear();
        let op = reqs.next_into(&mut buf);
        let span = tracer
            .as_mut()
            .map(|t| t.open("serve.request", *sent, None));
        let t = Instant::now();
        writer
            .write_all(&buf)
            .map_err(|e| format!("writing request: {e}"))?;
        inflight.push_back((t, op, span));
        *sent += 1;
        Ok::<(), String>(())
    };
    for _ in 0..OUTSTANDING {
        send(&mut sent, &mut inflight, &mut tracer)?;
    }
    let mut paused = false;
    loop {
        let Some((t, op, span)) = inflight.pop_front() else {
            // Drained: the session is over, or paused for a setup.
            let Some(s) = setups.as_deref_mut().filter(|_| paused) else {
                break;
            };
            s.catch_up()?;
            paused = false;
            chunk_start = Instant::now();
            for _ in 0..OUTSTANDING {
                send(&mut sent, &mut inflight, &mut tracer)?;
            }
            continue;
        };
        line.clear();
        let got = reader
            .read_line(&mut line)
            .map_err(|e| format!("reading response: {e}"))?;
        let lat = secs(t) * 1e6;
        if let (Some(tr), Some(s)) = (tracer.as_mut(), span) {
            tr.close(s);
        }
        if got == 0 {
            return Err("daemon closed the connection".to_string());
        }
        if !line.starts_with("{\"ok\":true") {
            not_ok += 1;
        }
        answered += 1;
        digest.update(line.as_bytes());
        if answered > warmup {
            cur.requests += 1;
            cur.placements += op.placements();
            cur.latencies.push(lat);
        }
        if answered == warmup || (answered > warmup && cur.requests == chunk) {
            let mut full = std::mem::replace(&mut cur, SocketChunk::new(chunk));
            full.secs = secs(chunk_start);
            full.digest = std::mem::take(&mut digest).value();
            chunks.push(full);
            chunk_start = Instant::now();
            if answered == warmup {
                start = chunk_start;
            }
        }
        // A new chunk starts only while time and the request budget last,
        // so every measured chunk is whole.
        let k = sent.saturating_sub(warmup);
        let opens_chunk = sent >= warmup && k > 0 && k % chunk == 0;
        let more = secs(start) < seconds && k < max_requests;
        if opens_chunk && more && setups.as_deref().is_some_and(Setups::due) {
            paused = true;
        } else if !paused && (!opens_chunk || more) {
            send(&mut sent, &mut inflight, &mut tracer)?;
        }
    }
    let wall = secs(start);
    let sleeps = voluntary_switches(pid).unwrap_or(0) - sleeps0;
    let peak = peak_rss_mib(Some(pid)).unwrap_or(0.0);
    drop(reader);
    daemon.shutdown()?;
    Ok(SocketRun {
        chunks,
        requests: answered - warmup,
        not_ok,
        wall,
        sleeps,
        peak_rss_mib: peak,
        spans: tracer,
    })
}

/// What the in-process replay answered.
struct Replay {
    /// Per-chunk digests, grouped as the socket session groups them.
    digests: Vec<u64>,
    /// `"ok":false` responses.
    errors: u64,
}

/// Replays `total` requests of the stream through an in-process
/// `Session` on the same spec. With a tracer, each `handle_line` call gets
/// a span named after its op, and each general-path line is also parsed
/// once on its own under a `serde_json.parse` span.
fn replay(
    ctx: &Ctx,
    warmup: u64,
    total: u64,
    mut tracer: Option<&mut Tracer>,
) -> Result<Replay, String> {
    let chunk = chunk_requests(ctx);
    let spec_text = std::fs::read_to_string(ctx.work_dir.join(SPEC)).map_err(|e| e.to_string())?;
    let spec: ScenarioSpec = serde_json::from_str(&spec_text).map_err(|e| e.to_string())?;
    let engine = build_engine(&spec).map_err(|e| e.to_string())?;
    let mut session = Session::new(engine, Box::new(MockClock::new(1000)));
    let mut reqs = Requests::new(ctx.seed, N);
    let mut buf = Vec::new();
    let mut digests = Vec::new();
    let mut digest = Digest::default();
    let mut errors = 0u64;
    for k in 1..=total {
        buf.clear();
        let op = reqs.next_into(&mut buf);
        let line = std::str::from_utf8(&buf[..buf.len() - 1]).map_err(|e| e.to_string())?;
        let mut resp = match tracer.as_deref_mut() {
            None => session.handle_line(line),
            Some(tr) => {
                if op != Op::Place {
                    tr.leaf("serde_json.parse", k, None, || {
                        serde_json::parse_value_str(line)
                    })
                    .map_err(|e| e.to_string())?;
                }
                tr.leaf(op.span_name(), k, None, || session.handle_line(line))
            }
        };
        if !resp.starts_with("{\"ok\":true") {
            errors += 1;
        }
        resp.push('\n');
        digest.update(resp.as_bytes());
        if k == warmup || (k > warmup && (k - warmup) % chunk == 0) {
            digests.push(std::mem::take(&mut digest).value());
        }
    }
    Ok(Replay { digests, errors })
}

fn serve_bin(ctx: &Ctx) -> Result<PathBuf, String> {
    let bin = ctx
        .serve_bin
        .as_ref()
        .ok_or("serve-socket needs --serve-bin")?;
    std::fs::canonicalize(bin).map_err(|e| format!("{}: {e}", bin.display()))
}

/// Writes the daemon's spec; returns its text.
fn write_spec(ctx: &Ctx, run: &mut Run) -> Result<String, String> {
    let text = scenario_json(
        "serve-session",
        N,
        "dense",
        None,
        2000,
        spec_seed(ctx.seed, 0x5E),
    );
    run.exact("spec_digest", format!("{:016x}", digest(text.as_bytes())));
    let mut reqs = Requests::new(ctx.seed, N);
    let mut lines = Vec::new();
    for _ in 0..warmup_requests(ctx) {
        reqs.next_into(&mut lines);
    }
    run.exact("requests_digest", format!("{:016x}", digest(&lines)));
    ctx.write_input(SPEC, &text)?;
    Ok(text)
}

/// Checks the daemon's chunks against the replay's digests. A response
/// that is not ok fails its request; a chunk whose digest differs fails
/// all of its requests.
fn check_stream(run: &mut Run, s: &SocketRun, want: &Replay) {
    run.attempted += s.requests;
    run.failed += s.not_ok;
    let bad: u64 = s
        .chunks
        .iter()
        .zip(&want.digests)
        .filter(|(c, &w)| c.digest != w)
        .map(|(c, _)| c.requests.max(1))
        .sum();
    run.failed += bad;
    run.check(
        "serve: daemon stream equals the in-process replay",
        bad == 0 && s.chunks.len() == want.digests.len(),
    );
    run.check("serve: replay answers every request ok", want.errors == 0);
}

/// The untraced run.
pub fn run(ctx: &Ctx) -> Result<Run, String> {
    let mut run = Run::default();
    let bin = serve_bin(ctx)?;
    write_spec(ctx, &mut run)?;
    let setups = ctx.pick(31, 3);
    let mut setup_runs = Setups::new(SETUP_WARMUP, setups, ctx.seconds, || {
        time_setup(&bin, &ctx.work_dir)
    })?;

    let warmup = warmup_requests(ctx);
    let mut s = session(
        ctx,
        &bin,
        warmup,
        ctx.seconds,
        u64::MAX,
        None,
        Some(&mut setup_runs),
    )?;
    run.metric("setup_s", setup_runs.finish()?);
    let total = warmup + s.requests;
    let want = replay(ctx, warmup, total, None)?;
    check_stream(&mut run, &s, &want);

    let measured = &mut s.chunks[1..];
    let rate = |work: fn(&SocketChunk) -> u64| -> Vec<Chunk> {
        measured
            .iter()
            .map(|c| Chunk {
                work: work(c),
                secs: c.secs,
            })
            .collect()
    };
    let requests = rate(|c| c.requests);
    let placements = rate(|c| c.placements);
    let lat: Vec<Vec<f64>> = measured
        .iter_mut()
        .map(|c| std::mem::take(&mut c.latencies))
        .collect();
    run.metric("moves_per_s", chunk_rate(&placements));
    run.metric("requests_per_s", chunk_rate(&requests));
    let (p50, p99) = latency_p50_p99(&lat);
    run.metric("latency_p50_us", p50);
    run.metric("latency_p99_us", p99);
    run.metric("peak_rss_mib", s.peak_rss_mib);
    run.exact("first_chunk_digest", format!("{:016x}", want.digests[0]));
    run.note("setups", setups);
    run.note("requests", s.requests);
    run.note("latency_samples", s.requests);
    run.note("chunks", requests.len());
    run.note("requests_per_chunk", chunk_requests(ctx));
    run.note("placements", placements.iter().map(|c| c.work).sum::<u64>());
    run.note("outstanding", OUTSTANDING);
    run.note("daemon_sleeps_per_request", s.sleeps as f64 / total as f64);
    Ok(run)
}

/// The traced run: an untraced and a traced socket session of the same
/// requests, then an in-process replay with spans around
/// `Session::handle_line` and `serde_json::parse_value_str`.
pub fn traced(ctx: &Ctx, tracer: &mut Tracer) -> Result<Run, String> {
    let mut run = Run::default();
    let bin = serve_bin(ctx)?;
    write_spec(ctx, &mut run)?;

    let spec_path = ctx.work_dir.join(SPEC);
    traced_setups(
        tracer,
        &mut run,
        ctx.pick(21, 3),
        || {
            let text = std::fs::read_to_string(&spec_path).map_err(|e| e.to_string())?;
            let spec: ScenarioSpec = serde_json::from_str(&text).map_err(|e| e.to_string())?;
            Ok(spec)
        },
        |spec| build_engine(spec).map(drop).map_err(|e| e.to_string()),
    )?;

    // Untraced and traced sessions of the same requests; in each pair the
    // two go first in turn, since the second of two sessions back to back
    // is faster. The spans of the first traced session are kept.
    let warmup = warmup_requests(ctx);
    let measured = ctx.pick(60_000, 3_000);
    let total = warmup + measured;
    let want = replay(ctx, warmup, total, None)?;
    let mut ratios = [Vec::new(), Vec::new()];
    let mut plain_runs = Vec::new();
    for k in 0..ctx.pick(4, 2) {
        let plain_session = || session(ctx, &bin, warmup, f64::INFINITY, measured, None, NO_SETUPS);
        let traced_session = |tracer: &mut Tracer| {
            let root = tracer.open("serve.session", k, None);
            let traced = session(
                ctx,
                &bin,
                warmup,
                f64::INFINITY,
                measured,
                Some(tracer.fork()),
                NO_SETUPS,
            );
            tracer.close(root);
            traced.map(|t| (t, root))
        };
        let (plain, (traced, root)) = if k % 2 == 0 {
            let plain = plain_session()?;
            (plain, traced_session(tracer)?)
        } else {
            let traced = traced_session(tracer)?;
            (plain_session()?, traced)
        };
        check_stream(&mut run, &plain, &want);
        check_stream(&mut run, &traced, &want);
        ratios[k as usize % 2].push(traced.wall / plain.wall);
        if let (0, Some(spans)) = (k, traced.spans) {
            tracer.adopt(spans, root);
        }
        plain_runs.push(plain);
    }
    let replayed = replay(ctx, warmup, total, Some(tracer))?;
    run.check(
        "serve: traced replay equals the untraced one",
        replayed.digests == want.digests,
    );
    let plain = plain_runs
        .into_iter()
        .min_by(|a, b| a.wall.total_cmp(&b.wall))
        .ok_or("no session ran")?;

    let totals = tracer.totals();
    let mut handled = 0.0;
    for op in Op::ALL {
        let t = totals.get(op.span_name()).copied().unwrap_or_default();
        handled += t.self_ns as f64;
        run.metric(op.metric_name(), t.self_ns as f64 / t.count.max(1) as f64);
    }
    let handled = handled / total as f64;
    let parse = totals.get("serde_json.parse").copied().unwrap_or_default();
    let daemon_ns = plain.wall * 1e9 / plain.requests as f64;
    let placements: u64 = plain.chunks.iter().map(|c| c.placements).sum();
    run.metric("session.errors", want.errors as f64);
    run.metric(
        "serde_json.parse_ns",
        parse.self_ns as f64 / parse.count.max(1) as f64,
    );
    run.metric("io.ns_per_request", daemon_ns - handled);
    run.metric("io.sleeps_per_request", plain.sleeps as f64 / total as f64);
    run.metric("serve.requests", total as f64);
    run.metric("process.moves", placements as f64);
    let [even, odd] = &ratios;
    run.metric(
        "trace.overhead_frac",
        (median(even) * median(odd)).sqrt() - 1.0,
    );
    run.exact("placements", placements);
    run.exact("first_chunk_digest", format!("{:016x}", want.digests[0]));
    run.note("daemon_ns_per_request", daemon_ns);
    run.note("handle_line_ns_per_request", handled);
    Ok(run)
}
