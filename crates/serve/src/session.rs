//! The request loop: one engine, line-JSON requests in, line-JSON
//! responses out.
//!
//! ## Protocol
//!
//! Each request is one JSON object on one line with an `"op"` field;
//! each response is one JSON object on one line with an `"ok"` field.
//! Failures are responses, not connection errors: `{"ok":false,"error":…}`.
//! A request line may hold at most [`MAX_LINE_BYTES`] (64 MiB) before its
//! newline; a longer one gets one error response, its rest is skipped, and
//! the session keeps serving. A larger state restores from a file through
//! `restore`'s `path`. A dense or sharded state restores only up to
//! [`MAX_DENSE_BINS`] bins, since its restore allocates every bin; a
//! sparse state has no such limit. A key the state's layout does not name
//! is refused.
//!
//! | op | request fields | response fields |
//! |----|----------------|-----------------|
//! | `place` | `count?` (default 1), `weight?` (default 1; ≠ 1 needs a weighted engine) | `bin`+`load` (or `bins` when `count` given), `balls` |
//! | `depart` | `bin` | `removed`, `load`, `balls` |
//! | `step` | `rounds?` (default 1) | `round`, `moved` (last round's movers) |
//! | `query` | `bin?` | `n`, `round`, `balls`, `max_load`, `empty_bins`, `nonempty_bins`, `bound`, `legitimate` (+ `load` when `bin` given; + `total_weight`, `weighted_max_load`, `weighted_bound`, `capacity_violations` on weighted engines) |
//! | `snapshot` | `path?` (a string) | `state` (the [`SnapshotState`] object; also written to `path` when given) |
//! | `restore` | `state` or `path` (a string) | `engine`, `n`, `round`, `balls` |
//! | `stats` | | the [`crate::stats::StatsReport`] fields |
//! | `shutdown` | | `shutting_down` |
//!
//! A field the op does not list is refused: the error names it and lists
//! the op's fields, so a mistyped `{"op":"place","cuont":3}` places
//! nothing. A field set to `null` reads as absent, and of duplicate keys
//! the first counts. A line that is not JSON gets the parser's error
//! whatever its fields, since the whole line is read before any of them is
//! judged.
//!
//! Every request takes one path. [`serde_json::Members`] walks the line
//! once into a typed `Request`: keys and strings are borrowed from the
//! line and integers read in place, and only a nested value, such as
//! `restore`'s `state`, is built as a [`Value`]. `place`, `depart`, `step`
//! and `query` write their responses straight into the one buffer
//! [`serve_lines`] reuses for every response.
//!
//! ## Determinism
//!
//! Allocation responses are a pure function of the engine state and the
//! request sequence: `place` draws from the engine's own RNG stream, so a
//! session restored from a snapshot answers the *same bins* the
//! uninterrupted session would have — the `ci.sh` serve stage byte-diffs
//! exactly that. Only `stats` reads the clock.

use std::borrow::Cow;
use std::fmt::Write as _;
use std::io::{BufRead, Read, Write};

use rbb_core::engine::{Engine, Incremental};
use rbb_core::load::MAX_DENSE_BINS;
use rbb_core::prelude::LegitimacyThreshold;
use rbb_core::snapshot::{restore, SnapshotState, ENGINE_DENSE, ENGINE_SHARDED};
use serde::{Deserialize, Serialize as _, Value};
use serde_json::{Field, Members};

use crate::clock::Clock;
use crate::stats::ServeStats;

/// Most placements a single `place` request may batch — a guard against a
/// typo'd `count` stalling the daemon for minutes.
pub const MAX_PLACE_BATCH: u64 = 1_000_000;

/// Most rounds a single `step` request may advance, for the same reason.
pub const MAX_STEP_BATCH: u64 = 10_000_000;

/// Longest request line [`serve_lines`] reads, in bytes before the `\n`:
/// a sender that never writes a newline cannot grow the daemon's memory
/// past it. States larger than this go through `restore`'s `path` field.
pub const MAX_LINE_BYTES: u64 = 64 << 20;

/// The answer to a line without a string `op`.
const NEEDS_OP: &str = "request needs a string \"op\" field";

/// A request's operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Op {
    Place,
    Depart,
    Step,
    Query,
    Snapshot,
    Restore,
    Stats,
    Shutdown,
}

impl Op {
    fn named(name: &str) -> Option<Op> {
        Some(match name {
            "place" => Op::Place,
            "depart" => Op::Depart,
            "step" => Op::Step,
            "query" => Op::Query,
            "snapshot" => Op::Snapshot,
            "restore" => Op::Restore,
            "stats" => Op::Stats,
            "shutdown" => Op::Shutdown,
            _ => return None,
        })
    }

    /// The fields this op reads; a request holding any other is refused.
    fn keys(self) -> &'static [Key] {
        match self {
            Op::Place => &[Key::Count, Key::Weight],
            Op::Depart | Op::Query => &[Key::Bin],
            Op::Step => &[Key::Rounds],
            Op::Snapshot => &[Key::Path],
            Op::Restore => &[Key::State, Key::Path],
            Op::Stats | Op::Shutdown => &[],
        }
    }
}

/// A request key that the protocol defines: `op` and the fields some op
/// reads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Key {
    Op,
    Count,
    Weight,
    Bin,
    Rounds,
    Path,
    State,
}

impl Key {
    const ALL: [Key; 7] = [
        Key::Op,
        Key::Count,
        Key::Weight,
        Key::Bin,
        Key::Rounds,
        Key::Path,
        Key::State,
    ];

    fn name(self) -> &'static str {
        match self {
            Key::Op => "op",
            Key::Count => "count",
            Key::Weight => "weight",
            Key::Bin => "bin",
            Key::Rounds => "rounds",
            Key::Path => "path",
            Key::State => "state",
        }
    }

    fn named(name: &str) -> Option<Key> {
        Key::ALL.into_iter().find(|key| key.name() == name)
    }
}

/// One request line read into typed fields: each key the protocol defines,
/// from its first occurrence. Strings borrow from the line and numbers are
/// read in place; only a nested value is a [`Value`].
struct Request<'a> {
    fields: [Option<Field<'a>>; Key::ALL.len()],
    /// The first key the protocol does not define.
    stray: Option<Cow<'a, str>>,
}

impl<'a> Request<'a> {
    /// Reads the whole line, so a line that is not JSON gets the parser's
    /// error whatever its fields.
    fn read(line: &'a str) -> Result<Self, String> {
        let bad = |e: serde_json::Error| format!("bad request: {e}");
        let Some(members) = Members::new(line).map_err(bad)? else {
            return Err(NEEDS_OP.to_string());
        };
        let mut req = Request {
            fields: Default::default(),
            stray: None,
        };
        for member in members {
            let (key, value) = member.map_err(bad)?;
            match Key::named(&key) {
                Some(k) => {
                    req.fields[k as usize].get_or_insert(value);
                }
                None => {
                    req.stray.get_or_insert(key);
                }
            }
        }
        Ok(req)
    }

    /// The op, once every field present is one it reads.
    fn op(&self) -> Result<Op, String> {
        let Some(Field::Str(name)) = &self.fields[Key::Op as usize] else {
            return Err(NEEDS_OP.to_string());
        };
        let op = Op::named(name).ok_or_else(|| {
            format!(
                "unknown op '{name}' (place | depart | step | query | snapshot | restore | stats | shutdown)"
            )
        })?;
        let unread = self.stray.as_deref().or_else(|| {
            Key::ALL
                .into_iter()
                .find(|&k| {
                    k != Key::Op && self.fields[k as usize].is_some() && !op.keys().contains(&k)
                })
                .map(Key::name)
        });
        match unread {
            None => Ok(op),
            Some(key) if op.keys().is_empty() => {
                Err(format!("op '{name}' has no field '{key}' (it takes none)"))
            }
            Some(key) => {
                let fields: Vec<&str> = op.keys().iter().map(|k| k.name()).collect();
                Err(format!(
                    "op '{name}' has no field '{key}' (its fields: {})",
                    fields.join(" | ")
                ))
            }
        }
    }

    /// Takes a field; `null` reads as absent.
    fn take(&mut self, key: Key) -> Option<Field<'a>> {
        self.fields[key as usize]
            .take()
            .filter(|field| !matches!(field, Field::Null))
    }

    /// Takes an unsigned-integer field, read in place.
    fn uint(&mut self, key: Key) -> Result<Option<u64>, String> {
        match self.take(key) {
            Some(Field::UInt(x)) => Ok(Some(x)),
            other => other.map(|field| via_value(key, field)).transpose(),
        }
    }

    /// Takes a string field.
    fn string(&mut self, key: Key) -> Result<Option<String>, String> {
        match self.take(key) {
            Some(Field::Str(s)) => Ok(Some(s.into_owned())),
            other => other.map(|field| via_value(key, field)).transpose(),
        }
    }
}

/// Reads a field whose shape is not `T`'s own through a [`Value`], as
/// `T`'s `Deserialize` reads it, so it gets the answer a parsed tree got:
/// the type error, or 0 for a `-0` read as a `u64`.
fn via_value<T: Deserialize>(key: Key, field: Field<'_>) -> Result<T, String> {
    T::deserialize(&Value::from(field)).map_err(|e| format!("field \"{}\": {}", key.name(), e.0))
}

// Writing into a `String` cannot fail, so the responses below drop the
// `fmt::Result` of each `write!`.

/// A live daemon session: one engine, one clock, running counters.
pub struct Session {
    engine: Box<dyn Engine>,
    clock: Box<dyn Clock>,
    stats: ServeStats,
    shutdown: bool,
}

impl Session {
    /// Wraps an engine and a clock into a fresh session.
    pub fn new(engine: Box<dyn Engine>, clock: Box<dyn Clock>) -> Self {
        Self {
            engine,
            clock,
            stats: ServeStats::default(),
            shutdown: false,
        }
    }

    /// Whether a `shutdown` request has been accepted.
    pub fn is_shutdown(&self) -> bool {
        self.shutdown
    }

    /// Read-only view of the wrapped engine.
    pub fn engine(&self) -> &dyn Engine {
        self.engine.as_ref()
    }

    /// Read-only view of the session counters.
    pub fn stats(&self) -> &ServeStats {
        &self.stats
    }

    /// Handles one request line, returning one response line (no trailing
    /// newline). Never panics on malformed input: protocol failures become
    /// `{"ok":false,…}` responses.
    pub fn handle_line(&mut self, line: &str) -> String {
        // Room for any response of `place` (one ball), `depart`, `step` or
        // `query`, so writing one allocates once.
        let mut out = String::with_capacity(256);
        self.respond(line, &mut out);
        out
    }

    /// Appends the response to one request line to `out`, without a
    /// newline.
    fn respond(&mut self, line: &str, out: &mut String) {
        self.stats.requests += 1;
        let start = out.len();
        if let Err(e) = Request::read(line).and_then(|req| self.dispatch(req, out)) {
            out.truncate(start);
            self.fail(e, out);
        }
    }

    fn dispatch(&mut self, mut req: Request<'_>, out: &mut String) -> Result<(), String> {
        match req.op()? {
            Op::Place => self.op_place(&mut req, out),
            Op::Depart => self.op_depart(&mut req, out),
            Op::Step => self.op_step(&mut req, out),
            Op::Query => self.op_query(&mut req, out),
            Op::Snapshot => self.op_snapshot(&mut req, out),
            Op::Restore => self.op_restore(&mut req, out),
            Op::Stats => self.op_stats(out),
            Op::Shutdown => {
                self.shutdown = true;
                out.push_str(r#"{"ok":true,"shutting_down":true}"#);
                Ok(())
            }
        }
    }

    /// Appends an error response and counts it.
    fn fail(&mut self, error: String, out: &mut String) {
        self.stats.errors += 1;
        out.push_str(&render(&Value::Object(vec![
            ("ok".to_string(), Value::Bool(false)),
            ("error".to_string(), Value::Str(error)),
        ])));
    }

    /// The engine's incremental surface: the guard shared by `place` and
    /// `depart`.
    fn guard_incremental(engine: &mut dyn Engine) -> Result<&mut dyn Incremental, String> {
        match engine.incremental() {
            Some(inc) => Ok(inc),
            None => Err("this engine does not support incremental place/depart".to_string()),
        }
    }

    /// One timed placement of a ball of weight `weight`.
    fn place_one(&mut self, weight: u32, out: &mut String) -> Result<(), String> {
        let balls = self.engine.balls();
        let inc = Self::guard_incremental(self.engine.as_mut())?;
        if balls >= u32::MAX as u64 {
            return Err("ball count is at the u32 load bound".to_string());
        }
        let t0 = self.clock.now_nanos();
        let bin = inc.place_weighted(weight);
        let t1 = self.clock.now_nanos();
        self.stats.place_latency.record(t1.saturating_sub(t0));
        self.stats.placements += 1;
        let load = self.engine.bin_load(bin);
        let balls = self.engine.balls();
        let _ = write!(
            out,
            r#"{{"ok":true,"bin":{bin},"load":{load},"balls":{balls}}}"#
        );
        Ok(())
    }

    /// Reads and guards the optional `weight` field: 1 when absent,
    /// otherwise a validated non-zero weight the engine can carry.
    fn weight(&self, req: &mut Request<'_>) -> Result<u32, String> {
        let Some(w) = req.uint(Key::Weight)? else {
            return Ok(1);
        };
        if w == 0 {
            return Err("weight must be at least 1".to_string());
        }
        let Ok(w) = u32::try_from(w) else {
            return Err("weight exceeds the u32 weight bound".to_string());
        };
        if w != 1 && !self.engine.weighted() {
            return Err(
                "non-unit weight needs a weighted engine (this engine is unit-weight)".to_string(),
            );
        }
        Ok(w)
    }

    fn op_place(&mut self, req: &mut Request<'_>, out: &mut String) -> Result<(), String> {
        let weight = self.weight(req)?;
        let Some(count) = req.uint(Key::Count)? else {
            return self.place_one(weight, out);
        };
        if count == 0 || count > MAX_PLACE_BATCH {
            return Err(format!("count must be in 1..={MAX_PLACE_BATCH}"));
        }
        let start = self.engine.balls();
        let inc = Self::guard_incremental(self.engine.as_mut())?;
        out.push_str(r#"{"ok":true,"bins":["#);
        for placed in 0..count {
            if start + placed >= u32::MAX as u64 {
                return Err("ball count reached the u32 load bound mid-batch".to_string());
            }
            let t0 = self.clock.now_nanos();
            let bin = inc.place_weighted(weight);
            let t1 = self.clock.now_nanos();
            self.stats.place_latency.record(t1.saturating_sub(t0));
            self.stats.placements += 1;
            if placed > 0 {
                out.push(',');
            }
            let _ = write!(out, "{bin}");
        }
        let _ = write!(out, r#"],"balls":{}}}"#, self.engine.balls());
        Ok(())
    }

    fn op_depart(&mut self, req: &mut Request<'_>, out: &mut String) -> Result<(), String> {
        let inc = Self::guard_incremental(self.engine.as_mut())?;
        let bin = req.uint(Key::Bin)?.ok_or("depart needs a \"bin\" field")? as usize;
        let removed = inc.depart(bin);
        if removed {
            self.stats.departures += 1;
        }
        let load = if bin < self.engine.n() {
            self.engine.bin_load(bin)
        } else {
            0
        };
        let _ = write!(
            out,
            r#"{{"ok":true,"removed":{removed},"load":{load},"balls":{}}}"#,
            self.engine.balls()
        );
        Ok(())
    }

    fn op_step(&mut self, req: &mut Request<'_>, out: &mut String) -> Result<(), String> {
        let rounds = req.uint(Key::Rounds)?.unwrap_or(1);
        if rounds == 0 || rounds > MAX_STEP_BATCH {
            return Err(format!("rounds must be in 1..={MAX_STEP_BATCH}"));
        }
        let mut moved = 0usize;
        for _ in 0..rounds {
            moved = self.engine.step_batched();
        }
        self.stats.rounds += rounds;
        let _ = write!(
            out,
            r#"{{"ok":true,"round":{},"moved":{moved}}}"#,
            self.engine.round()
        );
        Ok(())
    }

    /// The cheap metric surface: never materializes a dense config (the
    /// sparse engine answers in `O(#occupied)`).
    fn op_query(&mut self, req: &mut Request<'_>, out: &mut String) -> Result<(), String> {
        let n = self.engine.n();
        let bin = req.uint(Key::Bin)?.map(|bin| bin as usize);
        if let Some(bin) = bin.filter(|&bin| bin >= n) {
            return Err(format!("bin {bin} out of range 0..{n}"));
        }
        let max_load = self.engine.max_load();
        // One count of the non-empty bins (an O(n) scan on dense storage);
        // every engine's empty-bin count is n minus it.
        let nonempty = self.engine.nonempty_bins();
        // The legitimacy threshold is defined for n ≥ 2; a 1-bin process is
        // trivially "legitimate" and reports bound 0.
        let (bound, legitimate) = if n >= 2 {
            let b = LegitimacyThreshold::default().bound(n);
            (b, max_load <= b)
        } else {
            (0, true)
        };
        let _ = write!(
            out,
            r#"{{"ok":true,"n":{n},"round":{},"balls":{},"max_load":{max_load},"empty_bins":{},"nonempty_bins":{nonempty},"bound":{bound},"legitimate":{legitimate}"#,
            self.engine.round(),
            self.engine.balls(),
            n - nonempty,
        );
        // Weighted surface: appended only on weighted engines, so unit
        // sessions keep the pre-weighted response bytes.
        if self.engine.weighted() {
            let total_weight = self.engine.total_weight();
            let weighted_bound = if n >= 2 {
                LegitimacyThreshold::default().weighted_bound(n, total_weight, self.engine.balls())
            } else {
                0
            };
            let _ = write!(
                out,
                r#","total_weight":{total_weight},"weighted_max_load":{},"weighted_bound":{weighted_bound},"capacity_violations":{}"#,
                self.engine.weighted_max_load(),
                self.engine.capacity_violations(),
            );
        }
        if let Some(bin) = bin {
            let _ = write!(out, r#","load":{}"#, self.engine.bin_load(bin));
        }
        out.push('}');
        Ok(())
    }

    fn op_snapshot(&mut self, req: &mut Request<'_>, out: &mut String) -> Result<(), String> {
        let state = self
            .engine
            .snapshot()
            .ok_or("this engine does not support snapshots")?;
        let mut fields = vec![
            ("ok".to_string(), Value::Bool(true)),
            ("state".to_string(), state.serialize()),
        ];
        if let Some(path) = req.string(Key::Path)? {
            let mut text = serde_json::to_string_pretty(&state).map_err(|e| e.to_string())?;
            text.push('\n');
            std::fs::write(&path, text).map_err(|e| format!("writing {path}: {e}"))?;
            fields.push(("path".to_string(), Value::Str(path)));
        }
        out.push_str(&render(&Value::Object(fields)));
        Ok(())
    }

    fn op_restore(&mut self, req: &mut Request<'_>, out: &mut String) -> Result<(), String> {
        let path = req.string(Key::Path)?;
        let state = match (req.take(Key::State), path) {
            (Some(state), _) => SnapshotState::deserialize(&Value::from(state))
                .map_err(|e| format!("bad state: {}", e.0))?,
            (None, Some(path)) => {
                let text =
                    std::fs::read_to_string(&path).map_err(|e| format!("reading {path}: {e}"))?;
                serde_json::from_str(&text).map_err(|e| format!("parsing {path}: {e}"))?
            }
            (None, None) => return Err("restore needs a \"state\" or \"path\" field".to_string()),
        };
        let every_bin = [ENGINE_DENSE, ENGINE_SHARDED].contains(&state.engine.as_str());
        if every_bin && state.n > MAX_DENSE_BINS {
            return Err(format!(
                "{} state with n = {} bins: dense and sharded restores are limited to \
                 {MAX_DENSE_BINS} bins (they allocate every bin); restore larger n \
                 as a sparse state",
                state.engine, state.n
            ));
        }
        self.engine = restore(&state).map_err(|e| e.0)?;
        out.push_str(&render(&Value::Object(vec![
            ("ok".to_string(), Value::Bool(true)),
            ("engine".to_string(), Value::Str(state.engine.clone())),
            ("n".to_string(), Value::UInt(self.engine.n() as u64)),
            ("round".to_string(), Value::UInt(self.engine.round())),
            ("balls".to_string(), Value::UInt(self.engine.balls())),
        ])));
        Ok(())
    }

    fn op_stats(&mut self, out: &mut String) -> Result<(), String> {
        let elapsed = self.clock.now_nanos();
        out.push_str(&render(&self.stats.report(elapsed).serialize()));
        Ok(())
    }
}

/// Renders a value as one compact JSON line.
fn render(value: &Value) -> String {
    serde_json::to_string(value).unwrap_or_else(|e| format!(r#"{{"ok":false,"error":"{e}"}}"#))
}

/// Drives a session over a line stream: one response line per request
/// line, flushed immediately; a trailing `\n` or `\r\n` is stripped, blank
/// lines are skipped, and a line that is not UTF-8 or longer than
/// [`MAX_LINE_BYTES`] gets an error response (the rest of an over-long line
/// is skipped unread); the loop ends at EOF or after a `shutdown` request
/// is answered. Every response is written from one reused buffer.
pub fn serve_lines(
    session: &mut Session,
    mut reader: impl BufRead,
    mut writer: impl Write,
) -> std::io::Result<()> {
    let mut buf = Vec::new();
    let mut out = String::new();
    loop {
        buf.clear();
        if Read::take(&mut reader, MAX_LINE_BYTES + 1).read_until(b'\n', &mut buf)? == 0 {
            break;
        }
        let complete = buf.last() == Some(&b'\n');
        if complete {
            buf.pop();
            if buf.last() == Some(&b'\r') {
                buf.pop();
            }
        }
        out.clear();
        if !complete && buf.len() as u64 > MAX_LINE_BYTES {
            reader.skip_until(b'\n')?;
            session.stats.requests += 1;
            session.fail(
                format!(
                    "bad request: line longer than {MAX_LINE_BYTES} bytes \
                     (send large states through restore's \"path\")"
                ),
                &mut out,
            );
        } else {
            match std::str::from_utf8(&buf) {
                Ok(line) if line.trim().is_empty() => continue,
                Ok(line) => session.respond(line, &mut out),
                Err(e) => {
                    session.stats.requests += 1;
                    session.fail(format!("bad request: not UTF-8 ({e})"), &mut out);
                }
            }
        }
        out.push('\n');
        writer.write_all(out.as_bytes())?;
        writer.flush()?;
        if session.is_shutdown() {
            break;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::MockClock;
    use rbb_core::prelude::*;

    fn session(n: usize, seed: u64) -> Session {
        Session::new(
            Box::new(LoadProcess::legitimate_start(n, seed)),
            Box::new(MockClock::new(1000)),
        )
    }

    #[test]
    fn spaced_and_compact_place_requests_agree() {
        let mut a = session(64, 7);
        let mut b = session(64, 7);
        for _ in 0..20 {
            let compact = a.handle_line(r#"{"op":"place"}"#);
            let spaced = b.handle_line(r#" { "op" : "place" } "#);
            assert_eq!(compact, spaced);
            assert!(compact.starts_with(r#"{"ok":true,"bin":"#), "{compact}");
        }
        assert_eq!(a.stats().placements, 20);
    }

    #[test]
    fn place_batch_returns_bins_and_grows_mass() {
        let mut s = session(64, 7);
        let resp = s.handle_line(r#"{"op":"place","count":5}"#);
        assert!(resp.contains(r#""bins":["#), "{resp}");
        assert!(resp.contains(r#""balls":69"#), "{resp}");
        let over = s.handle_line(r#"{"op":"place","count":0}"#);
        assert!(over.contains(r#""ok":false"#));
    }

    #[test]
    fn depart_reports_removal_and_noop() {
        let mut s = session(16, 3);
        let hit = s.handle_line(r#"{"op":"depart","bin":0}"#);
        assert!(hit.contains(r#""removed":true"#), "{hit}");
        assert!(hit.contains(r#""balls":15"#), "{hit}");
        let miss = s.handle_line(r#"{"op":"depart","bin":0}"#);
        assert!(miss.contains(r#""removed":false"#), "{miss}");
        let out = s.handle_line(r#"{"op":"depart","bin":99}"#);
        assert!(out.contains(r#""removed":false"#), "{out}");
        assert_eq!(s.stats().departures, 1);
    }

    #[test]
    fn step_advances_rounds() {
        let mut s = session(32, 5);
        let resp = s.handle_line(r#"{"op":"step","rounds":10}"#);
        assert!(resp.contains(r#""round":10"#), "{resp}");
        assert_eq!(s.engine().round(), 10);
        assert!(s
            .handle_line(r#"{"op":"step","rounds":0}"#)
            .contains(r#""ok":false"#));
    }

    #[test]
    fn query_reports_the_metric_surface() {
        let mut s = session(64, 9);
        let resp = s.handle_line(r#"{"op":"query"}"#);
        for key in [
            r#""n":64"#,
            r#""balls":64"#,
            r#""max_load":1"#,
            r#""legitimate":true"#,
        ] {
            assert!(resp.contains(key), "missing {key} in {resp}");
        }
        let with_bin = s.handle_line(r#"{"op":"query","bin":3}"#);
        assert!(with_bin.contains(r#""load":1"#), "{with_bin}");
        let bad = s.handle_line(r#"{"op":"query","bin":64}"#);
        assert!(bad.contains(r#""ok":false"#), "{bad}");
    }

    #[test]
    fn snapshot_restore_resumes_identically_mid_session() {
        // Drive session A, snapshot it, keep driving it; drive session B
        // from the restored state with the same remaining requests — every
        // remaining response must be byte-identical.
        let mut a = session(64, 11);
        let prefix = [
            r#"{"op":"place"}"#,
            r#"{"op":"step","rounds":7}"#,
            r#"{"op":"place","count":3}"#,
        ];
        for req in prefix {
            assert!(a.handle_line(req).contains(r#""ok":true"#));
        }
        let snap = a.handle_line(r#"{"op":"snapshot"}"#);
        let state = serde_json::parse_value_str(&snap)
            .unwrap()
            .get("state")
            .cloned()
            .unwrap();
        let mut b = session(8, 1);
        let restore_req = render(&Value::Object(vec![
            ("op".to_string(), Value::Str("restore".to_string())),
            ("state".to_string(), state),
        ]));
        let restored = b.handle_line(&restore_req);
        assert!(restored.contains(r#""ok":true"#), "{restored}");
        let suffix = [
            r#"{"op":"place"}"#,
            r#"{"op":"step","rounds":5}"#,
            r#"{"op":"query"}"#,
            r#"{"op":"place","count":2}"#,
        ];
        for req in suffix {
            assert_eq!(a.handle_line(req), b.handle_line(req), "diverged at {req}");
        }
    }

    #[test]
    fn restore_rejects_corrupt_state() {
        let mut s = session(8, 1);
        let resp = s.handle_line(r#"{"op":"restore","state":{"version":9}}"#);
        assert!(resp.contains(r#""ok":false"#), "{resp}");
        let none = s.handle_line(r#"{"op":"restore"}"#);
        assert!(none.contains(r#""ok":false"#), "{none}");
        // A key the layout does not name is refused, and the engine kept.
        let before = s.handle_line(r#"{"op":"query"}"#);
        let stray = s.handle_line(
            r#"{"op":"restore","state":{"version":1,"engine":"dense","n":4,"shards":1,"round":0,"balls":1,"entries":[[0,1]],"rng_states":[[1,2,3,4]],"bogus":7}}"#,
        );
        assert!(stray.starts_with(r#"{"ok":false"#), "{stray}");
        assert!(stray.contains("no field 'bogus'"), "{stray}");
        assert_eq!(s.handle_line(r#"{"op":"query"}"#), before);
    }

    #[test]
    fn oversized_dense_and_sharded_restores_are_refused_before_allocating() {
        // Each line names 2^32 bins: restoring it would allocate 16 GiB of
        // loads. The session answers with an error and keeps its engine.
        let mut s = session(16, 1);
        let lines = [
            r#"{"op":"restore","state":{"version":1,"engine":"dense","n":4294967296,"shards":1,"round":0,"balls":1,"entries":[[0,1]],"rng_states":[[1,2,3,4]]}}"#,
            r#"{"op":"restore","state":{"version":1,"engine":"sharded","n":4294967296,"shards":2,"round":0,"balls":1,"entries":[[0,1]],"rng_states":[[1,2,3,4],[5,6,7,8]]}}"#,
        ];
        for (i, line) in lines.into_iter().enumerate() {
            let resp = s.handle_line(line);
            assert!(resp.starts_with(r#"{"ok":false"#), "{resp}");
            assert!(resp.contains(&MAX_DENSE_BINS.to_string()), "{resp}");
            assert!(resp.contains("sparse"), "{resp}");
            assert_eq!(s.stats().errors, i as u64 + 1);
            let query = s.handle_line(r#"{"op":"query"}"#);
            assert!(query.contains(r#""n":16,"#), "{query}");
        }
        // The same state as a sparse one restores: it allocates per entry.
        let sparse = lines[0].replace(r#""engine":"dense""#, r#""engine":"sparse""#);
        let resp = s.handle_line(&sparse);
        assert!(resp.contains(r#""ok":true"#), "{resp}");
        assert!(resp.contains(r#""n":4294967296"#), "{resp}");
    }

    #[test]
    fn a_restore_with_too_many_choices_is_refused() {
        // `best_of` comes from the client: a huge d would make the next
        // round draw d times per bin.
        let mut s = session(16, 1);
        let line = r#"{"op":"restore","state":{"version":3,"engine":"dense","n":2,"shards":1,"round":0,"balls":1,"entries":[[0,1]],"rng_states":[[1,2,3,4]],"best_of":18446744073709551615}}"#;
        let resp = s.handle_line(line);
        assert!(resp.starts_with(r#"{"ok":false"#), "{resp}");
        assert!(resp.contains("best_of"), "{resp}");
        assert_eq!(s.stats().errors, 1);
        let step = s.handle_line(r#"{"op":"step"}"#);
        assert!(step.contains(r#""ok":true"#), "{step}");
        let query = s.handle_line(r#"{"op":"query"}"#);
        assert!(query.contains(r#""n":16,"#), "{query}");
    }

    fn dchoice_session(n: usize, seed: u64) -> Session {
        use rbb_core::load::Rule;
        Session::new(
            Box::new(LoadProcess::legitimate_start(n, seed).with_rule(Rule::BestOf(2))),
            Box::new(MockClock::new(1000)),
        )
    }

    #[test]
    fn dchoice_sessions_place_depart_and_resume_from_a_snapshot() {
        let mut a = dchoice_session(64, 19);
        for req in [
            r#"{"op":"place"}"#,
            r#"{"op":"depart","bin":0}"#,
            r#"{"op":"step","rounds":9}"#,
            r#"{"op":"place","count":4}"#,
        ] {
            let resp = a.handle_line(req);
            assert!(resp.contains(r#""ok":true"#), "{req} -> {resp}");
        }
        let snap = a.handle_line(r#"{"op":"snapshot"}"#);
        assert!(snap.contains(r#""version":3,"#), "{snap}");
        assert!(snap.contains(r#""best_of":2"#), "{snap}");
        let state = serde_json::parse_value_str(&snap)
            .unwrap()
            .get("state")
            .cloned()
            .unwrap();
        let mut b = session(8, 1);
        let restore_req = render(&Value::Object(vec![
            ("op".to_string(), Value::Str("restore".to_string())),
            ("state".to_string(), state),
        ]));
        assert!(b.handle_line(&restore_req).contains(r#""ok":true"#));
        for req in [
            r#"{"op":"place"}"#,
            r#"{"op":"step","rounds":5}"#,
            r#"{"op":"place","count":3}"#,
            r#"{"op":"query"}"#,
        ] {
            assert_eq!(a.handle_line(req), b.handle_line(req), "diverged at {req}");
        }
    }

    #[test]
    fn stats_are_deterministic_under_the_mock_clock() {
        let drive = || {
            let mut s = session(64, 13);
            for _ in 0..50 {
                s.handle_line(r#"{"op":"place"}"#);
            }
            s.handle_line(r#"{"op":"stats"}"#)
        };
        let a = drive();
        assert_eq!(a, drive(), "mock-clock stats must replay byte-identically");
        assert!(a.contains(r#""placements":50"#), "{a}");
        // Each placement spans one 1000ns tick → bucket upper bound 1023.
        assert!(a.contains(r#""place_p50_nanos":1023"#), "{a}");
    }

    fn weighted_session(n: usize, seed: u64) -> Session {
        use rbb_core::weights::{Capacities, Weights};
        let engine = LoadProcess::with_weights(
            Config::one_per_bin(n),
            Xoshiro256pp::seed_from(seed),
            Weights::zipf(n as u64, 1.0, 16),
            Capacities::Uniform(8),
        );
        Session::new(Box::new(engine), Box::new(MockClock::new(1000)))
    }

    #[test]
    fn weighted_place_routes_the_weight_to_the_overlay() {
        let mut s = weighted_session(64, 21);
        let before: u64 = s.engine().total_weight();
        let resp = s.handle_line(r#"{"op":"place","weight":7}"#);
        assert!(resp.starts_with(r#"{"ok":true,"bin":"#), "{resp}");
        assert_eq!(s.engine().total_weight(), before + 7);
        let batch = s.handle_line(r#"{"op":"place","count":3,"weight":5}"#);
        assert!(batch.contains(r#""bins":["#), "{batch}");
        assert_eq!(s.engine().total_weight(), before + 7 + 15);
        // weight 0 and oversized weights are protocol errors, not panics.
        for bad in [
            r#"{"op":"place","weight":0}"#,
            r#"{"op":"place","weight":4294967296}"#,
        ] {
            assert!(s.handle_line(bad).contains(r#""ok":false"#));
        }
    }

    #[test]
    fn unit_engines_reject_non_unit_weights_but_accept_weight_one() {
        let mut s = session(16, 3);
        let heavy = s.handle_line(r#"{"op":"place","weight":2}"#);
        assert!(heavy.contains("needs a weighted engine"), "{heavy}");
        // weight 1 on a unit engine is the same placement as no weight.
        let mut t = session(16, 3);
        let explicit = s.handle_line(r#"{"op":"place","weight":1}"#);
        let implicit = t.handle_line(r#"{"op":"place"}"#);
        assert_eq!(explicit, implicit);
    }

    #[test]
    fn weighted_query_reports_the_weighted_surface() {
        let mut s = weighted_session(64, 9);
        let resp = s.handle_line(r#"{"op":"query"}"#);
        for key in [
            r#""total_weight":"#,
            r#""weighted_max_load":"#,
            r#""weighted_bound":"#,
            r#""capacity_violations":"#,
        ] {
            assert!(resp.contains(key), "missing {key} in {resp}");
        }
        // Unit sessions keep the pre-weighted response bytes.
        let mut u = session(64, 9);
        let unit = u.handle_line(r#"{"op":"query"}"#);
        assert!(!unit.contains("total_weight"), "{unit}");
        assert!(unit.ends_with(r#""legitimate":true}"#), "{unit}");
    }

    #[test]
    fn weighted_snapshot_restore_resumes_identically() {
        let mut a = weighted_session(32, 17);
        for req in [
            r#"{"op":"place","weight":9}"#,
            r#"{"op":"step","rounds":11}"#,
        ] {
            assert!(a.handle_line(req).contains(r#""ok":true"#));
        }
        let snap = a.handle_line(r#"{"op":"snapshot"}"#);
        let state = serde_json::parse_value_str(&snap)
            .unwrap()
            .get("state")
            .cloned()
            .unwrap();
        let mut b = session(8, 1);
        let restore_req = render(&Value::Object(vec![
            ("op".to_string(), Value::Str("restore".to_string())),
            ("state".to_string(), state),
        ]));
        assert!(b.handle_line(&restore_req).contains(r#""ok":true"#));
        for req in [
            r#"{"op":"place","weight":4}"#,
            r#"{"op":"step","rounds":5}"#,
            r#"{"op":"query"}"#,
        ] {
            assert_eq!(a.handle_line(req), b.handle_line(req), "diverged at {req}");
        }
    }

    #[test]
    fn malformed_requests_become_error_responses() {
        let mut s = session(8, 1);
        for req in [
            "not json",
            r#"{"no_op":1}"#,
            r#"{"op":"warp"}"#,
            r#"{"op":"depart"}"#,
            r#"{"op":"place","count":"many"}"#,
        ] {
            let resp = s.handle_line(req);
            assert!(resp.contains(r#""ok":false"#), "{req} -> {resp}");
        }
        assert_eq!(s.stats().errors, 5);
    }

    #[test]
    fn incremental_guard_rejects_non_load_engines() {
        let mut s = Session::new(
            Box::new(Tetris::new(
                Config::one_per_bin(8),
                Xoshiro256pp::seed_from(1),
            )),
            Box::new(MockClock::new(1)),
        );
        assert!(s
            .handle_line(r#"{"op":"place"}"#)
            .contains("does not support incremental"));
        assert!(s
            .handle_line(r#"{"op":"snapshot"}"#)
            .contains("does not support snapshots"));
    }

    #[test]
    fn serve_lines_round_trips_and_honors_shutdown() {
        let mut s = session(16, 2);
        let input = "\n{\"op\":\"place\"}\n{\"op\":\"shutdown\"}\n{\"op\":\"place\"}\n";
        let mut out = Vec::new();
        serve_lines(&mut s, input.as_bytes(), &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2, "stops after shutdown: {text}");
        assert!(lines[1].contains("shutting_down"));
        assert!(s.is_shutdown());
    }

    #[test]
    fn serve_lines_answers_a_non_utf8_line_and_keeps_serving() {
        let mut s = session(64, 2);
        let input: &[u8] = b"{\"op\":\"place\"}\r\n\n\xff\xfe\n{\"op\":\"query\"}\n";
        let mut out = Vec::new();
        serve_lines(&mut s, input, &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3, "{text}");
        assert!(lines[0].starts_with(r#"{"ok":true,"bin":"#), "{text}");
        assert!(lines[1].contains(r#""ok":false"#), "{text}");
        assert!(lines[1].contains("not UTF-8"), "{text}");
        assert!(lines[2].contains(r#""balls":65"#), "{text}");
        assert_eq!(s.stats().errors, 1);
        assert_eq!(s.stats().requests, 3);
    }

    #[test]
    fn over_long_line_gets_an_error_and_the_next_is_answered() {
        let mut s = session(16, 2);
        let over_long = std::io::repeat(b'x').take(MAX_LINE_BYTES + 1);
        let input = std::io::BufReader::new(over_long.chain(&b"\n{\"op\":\"query\"}\n"[..]));
        let mut out = Vec::new();
        serve_lines(&mut s, input, &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2, "{text}");
        assert!(lines[0].starts_with(r#"{"ok":false"#), "{}", lines[0]);
        assert!(
            lines[0].contains(&MAX_LINE_BYTES.to_string()),
            "names the limit: {}",
            lines[0]
        );
        assert!(lines[1].contains(r#""n":16"#), "{}", lines[1]);
        assert_eq!(s.stats().errors, 1);
        assert_eq!(s.stats().requests, 2);
    }

    #[test]
    fn deep_request_gets_an_error_and_the_next_is_answered() {
        let mut s = session(16, 2);
        let depth = 100_000;
        let deep = format!(
            r#"{{"op":"place","x":{}{}}}"#,
            "[".repeat(depth),
            "]".repeat(depth)
        );
        let input = format!("{deep}\n{{\"op\":\"query\"}}\n");
        let mut out = Vec::new();
        serve_lines(&mut s, input.as_bytes(), &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2, "{text}");
        // The parse error, not the field `x` that place does not read.
        assert!(lines[0].contains("recursion limit"), "{}", lines[0]);
        assert!(lines[1].contains(r#""n":16"#), "{}", lines[1]);
        assert_eq!(s.stats().errors, 1);
    }

    #[test]
    fn long_string_request_is_answered_and_the_next_too() {
        // A 4 MiB string field: the parser reads it in one pass, so the
        // line is answered (refused for its field `pad`) and so is the
        // next request.
        let mut s = session(16, 2);
        let long = format!(r#"{{"op":"query","pad":"{}"}}"#, "x".repeat(4 << 20));
        let input = format!("{long}\n{{\"op\":\"query\"}}\n");
        let mut out = Vec::new();
        serve_lines(&mut s, input.as_bytes(), &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2, "{}", &text[..text.len().min(200)]);
        assert!(lines[0].starts_with(r#"{"ok":false"#), "{}", lines[0]);
        assert!(lines[0].contains("'pad'"), "{}", lines[0]);
        assert_eq!(lines[1], s.handle_line(r#"{"op":"query"}"#));
        assert!(lines[1].contains(r#""n":16"#), "{}", lines[1]);
    }

    #[test]
    fn fields_an_op_does_not_read_are_refused() {
        let mut s = session(16, 2);
        let query = s.handle_line(r#"{"op":"query"}"#);
        for (line, field, lists) in [
            (r#"{"op":"place","cuont":3}"#, "cuont", "count | weight"),
            (r#"{"bin":3,"op":"place"}"#, "bin", "count | weight"),
            (r#"{"op":"depart","bin":1,"count":2}"#, "count", "bin"),
            (r#"{"op":"snapshot","\u0078":1}"#, "x", "path"),
            (
                r#"{"op":"restore","state":null,"rounds":1}"#,
                "rounds",
                "state | path",
            ),
        ] {
            let resp = s.handle_line(line);
            assert!(resp.starts_with(r#"{"ok":false"#), "{line} -> {resp}");
            assert!(
                resp.contains(&format!("field '{field}'")),
                "{line} -> {resp}"
            );
            assert!(resp.contains(lists), "{line} -> {resp}");
        }
        let stats = s.handle_line(r#"{"op":"stats","verbose":true}"#);
        assert!(stats.contains("'verbose' (it takes none)"), "{stats}");
        let shutdown = s.handle_line(r#"{"op":"shutdown","now":true}"#);
        assert!(shutdown.starts_with(r#"{"ok":false"#), "{shutdown}");
        assert!(!s.is_shutdown());
        // A path must be a string.
        for line in [
            r#"{"op":"snapshot","path":5}"#,
            r#"{"op":"restore","path":["x"]}"#,
        ] {
            let resp = s.handle_line(line);
            assert!(
                resp.contains(r#"field \"path\": expected string"#),
                "{resp}"
            );
        }
        // Nothing was placed, stepped or restored.
        assert_eq!(s.handle_line(r#"{"op":"query"}"#), query);
        // A line that is not JSON gets the parse error, whatever its fields.
        let broken = s.handle_line(r#"{"op":"place","cuont":3"#);
        assert!(broken.contains("bad request: JSON error"), "{broken}");
        // An unknown op is named before its fields.
        let warp = s.handle_line(r#"{"op":"warp","cuont":3}"#);
        assert!(warp.contains("unknown op 'warp'"), "{warp}");
    }
}
