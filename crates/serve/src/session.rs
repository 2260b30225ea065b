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
//! `restore`'s `path`.
//!
//! | op | request fields | response fields |
//! |----|----------------|-----------------|
//! | `place` | `count?` (default 1), `weight?` (default 1; ≠ 1 needs a weighted engine) | `bin`+`load` (or `bins` when `count` given), `balls` |
//! | `depart` | `bin` | `removed`, `load`, `balls` |
//! | `step` | `rounds?` (default 1) | `round`, `moved` (last round's movers) |
//! | `query` | `bin?` | `n`, `round`, `balls`, `max_load`, `empty_bins`, `nonempty_bins`, `bound`, `legitimate` (+ `load` when `bin` given; + `total_weight`, `weighted_max_load`, `weighted_bound`, `capacity_violations` on weighted engines) |
//! | `snapshot` | `path?` | `state` (the [`SnapshotState`] object; also written to `path` when given) |
//! | `restore` | `state` or `path` | `engine`, `n`, `round`, `balls` |
//! | `stats` | | the [`crate::stats::StatsReport`] fields |
//! | `shutdown` | | `shutting_down` |
//!
//! ## Determinism
//!
//! Allocation responses are a pure function of the engine state and the
//! request sequence: `place` draws from the engine's own RNG stream, so a
//! session restored from a snapshot answers the *same bins* the
//! uninterrupted session would have — the `ci.sh` serve stage byte-diffs
//! exactly that. Only `stats` reads the clock.

use std::io::{BufRead, Read, Write};

use rbb_core::engine::{Engine, Incremental};
use rbb_core::prelude::LegitimacyThreshold;
use rbb_core::snapshot::{restore, SnapshotState};
use serde::{Deserialize as _, Serialize as _, Value};

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
        self.stats.requests += 1;
        // Fast path for the bare hot-loop request: skips the generic JSON
        // parse (same semantics as the general path below).
        if line == r#"{"op":"place"}"# {
            return match self.place_one(1) {
                Ok(resp) => resp,
                Err(e) => self.fail(e),
            };
        }
        let value = match serde_json::parse_value_str(line) {
            Ok(v) => v,
            Err(e) => return self.fail(format!("bad request: {e}")),
        };
        let op = match value.get("op").and_then(Value::as_str) {
            Some(op) => op.to_string(),
            None => return self.fail("request needs a string \"op\" field".to_string()),
        };
        let result = match op.as_str() {
            "place" => self.op_place(&value),
            "depart" => self.op_depart(&value),
            "step" => self.op_step(&value),
            "query" => self.op_query(&value),
            "snapshot" => self.op_snapshot(&value),
            "restore" => self.op_restore(&value),
            "stats" => self.op_stats(),
            "shutdown" => {
                self.shutdown = true;
                Ok(r#"{"ok":true,"shutting_down":true}"#.to_string())
            }
            other => Err(format!(
                "unknown op '{other}' (place | depart | step | query | snapshot | restore | stats | shutdown)"
            )),
        };
        match result {
            Ok(resp) => resp,
            Err(e) => self.fail(e),
        }
    }

    /// Renders an error response and counts it.
    fn fail(&mut self, error: String) -> String {
        self.stats.errors += 1;
        render(&Value::Object(vec![
            ("ok".to_string(), Value::Bool(false)),
            ("error".to_string(), Value::Str(error)),
        ]))
    }

    /// The engine's incremental surface: the guard shared by `place` and
    /// `depart`.
    fn guard_incremental(engine: &mut dyn Engine) -> Result<&mut dyn Incremental, String> {
        match engine.incremental() {
            Some(inc) => Ok(inc),
            None => Err("this engine does not support incremental place/depart".to_string()),
        }
    }

    /// One timed placement of a ball of weight `weight`, with the hot-path
    /// response rendered by hand.
    fn place_one(&mut self, weight: u32) -> Result<String, String> {
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
        Ok(format!(
            r#"{{"ok":true,"bin":{bin},"load":{load},"balls":{balls}}}"#
        ))
    }

    /// Parses and guards the optional `weight` field: `None` when absent,
    /// otherwise a validated non-zero weight the engine can carry.
    fn opt_weight(&self, req: &Value) -> Result<Option<u32>, String> {
        let Some(w) = opt_u64(req, "weight")? else {
            return Ok(None);
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
        Ok(Some(w))
    }

    fn op_place(&mut self, req: &Value) -> Result<String, String> {
        let weight = self.opt_weight(req)?;
        let Some(count) = opt_u64(req, "count")? else {
            return self.place_one(weight.unwrap_or(1));
        };
        if count == 0 || count > MAX_PLACE_BATCH {
            return Err(format!("count must be in 1..={MAX_PLACE_BATCH}"));
        }
        let start = self.engine.balls();
        let inc = Self::guard_incremental(self.engine.as_mut())?;
        let mut bins = Vec::with_capacity(count.min(4096) as usize);
        for placed in 0..count {
            if start + placed >= u32::MAX as u64 {
                return Err("ball count reached the u32 load bound mid-batch".to_string());
            }
            let t0 = self.clock.now_nanos();
            let bin = inc.place_weighted(weight.unwrap_or(1));
            let t1 = self.clock.now_nanos();
            self.stats.place_latency.record(t1.saturating_sub(t0));
            self.stats.placements += 1;
            bins.push(Value::UInt(bin as u64));
        }
        Ok(render(&Value::Object(vec![
            ("ok".to_string(), Value::Bool(true)),
            ("bins".to_string(), Value::Array(bins)),
            ("balls".to_string(), Value::UInt(self.engine.balls())),
        ])))
    }

    fn op_depart(&mut self, req: &Value) -> Result<String, String> {
        let inc = Self::guard_incremental(self.engine.as_mut())?;
        let bin = opt_u64(req, "bin")?.ok_or("depart needs a \"bin\" field")? as usize;
        let removed = inc.depart(bin);
        if removed {
            self.stats.departures += 1;
        }
        let load = if bin < self.engine.n() {
            self.engine.bin_load(bin)
        } else {
            0
        };
        Ok(format!(
            r#"{{"ok":true,"removed":{removed},"load":{load},"balls":{}}}"#,
            self.engine.balls()
        ))
    }

    fn op_step(&mut self, req: &Value) -> Result<String, String> {
        let rounds = opt_u64(req, "rounds")?.unwrap_or(1);
        if rounds == 0 || rounds > MAX_STEP_BATCH {
            return Err(format!("rounds must be in 1..={MAX_STEP_BATCH}"));
        }
        let mut moved = 0usize;
        for _ in 0..rounds {
            moved = self.engine.step_batched();
        }
        self.stats.rounds += rounds;
        Ok(format!(
            r#"{{"ok":true,"round":{},"moved":{moved}}}"#,
            self.engine.round()
        ))
    }

    /// The cheap metric surface: never materializes a dense config (the
    /// sparse engine answers in `O(#occupied)`).
    fn op_query(&mut self, req: &Value) -> Result<String, String> {
        let n = self.engine.n();
        let max_load = self.engine.max_load();
        // The legitimacy threshold is defined for n ≥ 2; a 1-bin process is
        // trivially "legitimate" and reports bound 0.
        let (bound, legitimate) = if n >= 2 {
            let b = LegitimacyThreshold::default().bound(n);
            (b, max_load <= b)
        } else {
            (0, true)
        };
        let mut fields = vec![
            ("ok".to_string(), Value::Bool(true)),
            ("n".to_string(), Value::UInt(n as u64)),
            ("round".to_string(), Value::UInt(self.engine.round())),
            ("balls".to_string(), Value::UInt(self.engine.balls())),
            ("max_load".to_string(), Value::UInt(max_load as u64)),
            (
                "empty_bins".to_string(),
                Value::UInt(self.engine.empty_bins() as u64),
            ),
            (
                "nonempty_bins".to_string(),
                Value::UInt(self.engine.nonempty_bins() as u64),
            ),
            ("bound".to_string(), Value::UInt(bound as u64)),
            ("legitimate".to_string(), Value::Bool(legitimate)),
        ];
        // Weighted surface: appended only on weighted engines, so unit
        // sessions keep the pre-weighted response bytes.
        if self.engine.weighted() {
            let total_weight = self.engine.total_weight();
            let weighted_bound = if n >= 2 {
                LegitimacyThreshold::default().weighted_bound(n, total_weight, self.engine.balls())
            } else {
                0
            };
            fields.push(("total_weight".to_string(), Value::UInt(total_weight)));
            fields.push((
                "weighted_max_load".to_string(),
                Value::UInt(self.engine.weighted_max_load()),
            ));
            fields.push(("weighted_bound".to_string(), Value::UInt(weighted_bound)));
            fields.push((
                "capacity_violations".to_string(),
                Value::UInt(self.engine.capacity_violations()),
            ));
        }
        if let Some(bin) = opt_u64(req, "bin")? {
            let bin = bin as usize;
            if bin >= n {
                return Err(format!("bin {bin} out of range 0..{n}"));
            }
            fields.push((
                "load".to_string(),
                Value::UInt(self.engine.bin_load(bin) as u64),
            ));
        }
        Ok(render(&Value::Object(fields)))
    }

    fn op_snapshot(&mut self, req: &Value) -> Result<String, String> {
        let state = self
            .engine
            .snapshot()
            .ok_or("this engine does not support snapshots")?;
        let mut fields = vec![
            ("ok".to_string(), Value::Bool(true)),
            ("state".to_string(), state.serialize()),
        ];
        if let Some(path) = req.get("path").and_then(Value::as_str) {
            let mut text = serde_json::to_string_pretty(&state).map_err(|e| e.to_string())?;
            text.push('\n');
            std::fs::write(path, text).map_err(|e| format!("writing {path}: {e}"))?;
            fields.push(("path".to_string(), Value::Str(path.to_string())));
        }
        Ok(render(&Value::Object(fields)))
    }

    fn op_restore(&mut self, req: &Value) -> Result<String, String> {
        // `Value::get` yields `Null` for absent keys, so filter it out.
        let state_field = req.get("state").filter(|v| !matches!(v, Value::Null));
        let state = match (state_field, req.get("path").and_then(Value::as_str)) {
            (Some(value), _) => {
                SnapshotState::deserialize(value).map_err(|e| format!("bad state: {}", e.0))?
            }
            (None, Some(path)) => {
                let text =
                    std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
                serde_json::from_str(&text).map_err(|e| format!("parsing {path}: {e}"))?
            }
            (None, None) => return Err("restore needs a \"state\" or \"path\" field".to_string()),
        };
        self.engine = restore(&state).map_err(|e| e.0)?;
        Ok(render(&Value::Object(vec![
            ("ok".to_string(), Value::Bool(true)),
            ("engine".to_string(), Value::Str(state.engine.clone())),
            ("n".to_string(), Value::UInt(self.engine.n() as u64)),
            ("round".to_string(), Value::UInt(self.engine.round())),
            ("balls".to_string(), Value::UInt(self.engine.balls())),
        ])))
    }

    fn op_stats(&mut self) -> Result<String, String> {
        let elapsed = self.clock.now_nanos();
        Ok(render(&self.stats.report(elapsed).serialize()))
    }
}

/// Reads an optional unsigned-integer request field.
fn opt_u64(req: &Value, key: &str) -> Result<Option<u64>, String> {
    match req.get(key) {
        None | Some(Value::Null) => Ok(None),
        Some(v) => u64::deserialize(v)
            .map(Some)
            .map_err(|e| format!("field \"{key}\": {}", e.0)),
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
/// is answered.
pub fn serve_lines(
    session: &mut Session,
    mut reader: impl BufRead,
    mut writer: impl Write,
) -> std::io::Result<()> {
    let mut buf = Vec::new();
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
        let response = if !complete && buf.len() as u64 > MAX_LINE_BYTES {
            reader.skip_until(b'\n')?;
            session.stats.requests += 1;
            session.fail(format!(
                "bad request: line longer than {MAX_LINE_BYTES} bytes \
                 (send large states through restore's \"path\")"
            ))
        } else {
            match std::str::from_utf8(&buf) {
                Ok(line) if line.trim().is_empty() => continue,
                Ok(line) => session.handle_line(line),
                Err(e) => {
                    session.stats.requests += 1;
                    session.fail(format!("bad request: not UTF-8 ({e})"))
                }
            }
        };
        writer.write_all(response.as_bytes())?;
        writer.write_all(b"\n")?;
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
    fn place_fast_path_and_general_path_agree() {
        let mut a = session(64, 7);
        let mut b = session(64, 7);
        for _ in 0..20 {
            let fast = a.handle_line(r#"{"op":"place"}"#);
            let general = b.handle_line(r#"{"op": "place"}"#);
            assert_eq!(fast, general);
            assert!(fast.starts_with(r#"{"ok":true,"bin":"#), "{fast}");
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
        assert!(lines[0].starts_with(r#"{"ok":false"#), "{}", lines[0]);
        assert!(lines[1].contains(r#""n":16"#), "{}", lines[1]);
        assert_eq!(s.stats().errors, 1);
    }
}
