//! Seeded fuzz test of the request path, on a fixed case budget.
//!
//! Each case takes a valid request and sends it twice over, to twin
//! sessions: once compact and once re-encoded with random whitespace,
//! member order and `\u` escapes, and the two answers must be
//! byte-identical. Then it mutates the request with the grammar in mind
//! (a value swapped for one of another type, an integer at 2^64 or 1e400,
//! nesting past the parser's limit, a member added, dropped or given an
//! escaped key) and byte by byte (a byte dropped or duplicated, invalid
//! UTF-8 inserted, the line cut short), and sends the result to both
//! twins through `serve_lines`.
//!
//! The oracle, after every request: nothing panics; a line that is not
//! blank gets exactly one response line, a JSON object with a boolean
//! `ok`; the bin loads sum to `balls` and the weighted loads to
//! `total_weight`; and the round counter never decreases but through a
//! `restore`.

mod common;

use common::{serve, sessions};
use rbb_core::rng::SplitMix64;
use rbb_serve::Session;
use serde::Value;

/// Cases per session kind.
const CASES: usize = 2000;

/// A request as its members: each key as raw JSON string content, each
/// value as JSON text.
type Members = Vec<(String, String)>;

fn below(rng: &mut SplitMix64, n: usize) -> usize {
    (rng.next_u64() % n as u64) as usize
}

fn pick<'a>(rng: &mut SplitMix64, xs: &[&'a str]) -> &'a str {
    xs[below(rng, xs.len())]
}

/// Valid requests of every op but `snapshot` with a `path`, which would
/// write files; the `restore` carries the session's own starting state.
fn templates(state: &str) -> Vec<Members> {
    let member = |k: &str, v: &str| (k.to_string(), v.to_string());
    let op = |name: &str| member("op", &format!("\"{name}\""));
    vec![
        vec![op("place")],
        vec![op("place"), member("count", "3")],
        vec![op("place"), member("weight", "2")],
        vec![op("place"), member("count", "2"), member("weight", "1")],
        vec![op("depart"), member("bin", "5")],
        vec![op("depart"), member("bin", "63")],
        vec![op("step")],
        vec![op("step"), member("rounds", "3")],
        vec![op("query")],
        vec![op("query"), member("bin", "7")],
        vec![op("snapshot")],
        vec![op("stats")],
        vec![op("restore"), member("state", state)],
        vec![op("shutdown")],
    ]
}

/// Writes `members` as one object. With `vary`, whitespace goes between
/// tokens, members are shuffled and key characters are `\u` escaped, all
/// at random: an encoding that must mean the same request.
fn encode(rng: &mut SplitMix64, members: &[(String, String)], vary: bool) -> String {
    let mut order: Vec<usize> = (0..members.len()).collect();
    if vary {
        for i in (1..order.len()).rev() {
            order.swap(i, below(rng, i + 1));
        }
    }
    let ws = |rng: &mut SplitMix64, out: &mut String| {
        while vary && below(rng, 3) == 0 {
            out.push([' ', '\t', '\r'][below(rng, 3)]);
        }
    };
    let mut out = String::new();
    ws(rng, &mut out);
    out.push('{');
    for (i, &m) in order.iter().enumerate() {
        let (key, value) = &members[m];
        if i > 0 {
            out.push(',');
        }
        ws(rng, &mut out);
        out.push('"');
        for c in key.chars() {
            if vary && c.is_ascii_alphabetic() && below(rng, 3) == 0 {
                out.push_str(&format!("\\u{:04x}", c as u32));
            } else {
                out.push(c);
            }
        }
        out.push('"');
        ws(rng, &mut out);
        out.push(':');
        ws(rng, &mut out);
        out.push_str(value);
        ws(rng, &mut out);
    }
    out.push('}');
    ws(rng, &mut out);
    out
}

/// A mutation of `members`: first of its structure, then of its bytes.
fn mutate(rng: &mut SplitMix64, mut members: Members) -> Vec<u8> {
    let deep = |depth: usize| "[".repeat(depth) + &"]".repeat(depth);
    let (deep_ok, deep_bad) = (deep(127), deep(128));
    let values = [
        "0",
        "-0",
        "-3",
        "2.5",
        "1e400",
        "-1e400",
        "18446744073709551615",
        "18446744073709551616",
        "4294967296",
        "\"7\"",
        "\"place\"",
        "\"\\u0070lace\"",
        "true",
        "null",
        "[1]",
        "{}",
        "{\"a\":[null]}",
        deep_ok.as_str(),
        deep_bad.as_str(),
    ];
    let keys = [
        "op", "count", "weight", "bin", "rounds", "state", "cuont", "pad", "",
    ];
    let escaped_keys = [
        "\\u006fp",
        "c\\u006funt",
        "\\q",
        "\\u00zz",
        "\\ud800",
        "\\\"",
        "\\\\",
        "b\\u0069n",
    ];
    for _ in 0..below(rng, 3) {
        let i = below(rng, members.len().max(1));
        match below(rng, 4) {
            0 if !members.is_empty() => members[i].1 = pick(rng, &values).to_string(),
            1 => {
                let key = pick(rng, &keys).to_string();
                let value = pick(rng, &values).to_string();
                members.insert(i.min(members.len()), (key, value));
            }
            2 if !members.is_empty() => {
                members.remove(i);
            }
            3 if !members.is_empty() => members[i].0 = pick(rng, &escaped_keys).to_string(),
            _ => {}
        }
    }
    let mut line = encode(rng, &members, true).into_bytes();
    for _ in 0..below(rng, 3) {
        let at = below(rng, line.len() + 1);
        match below(rng, 4) {
            0 if at < line.len() => {
                line.remove(at);
            }
            1 if at < line.len() => line.insert(at, line[at]),
            2 => {
                let bad: &[&[u8]] = &[b"\xff", b"\xc3", b"\xe2\x82", b"\xed\xa0\x80"];
                let bytes = bad[below(rng, bad.len())];
                line.splice(at..at, bytes.iter().copied());
            }
            _ => line.truncate(at),
        }
    }
    line
}

/// Sends one line; checks that it gets one response line, a JSON object
/// with a boolean `ok`, unless it is blank. Returns the response.
fn send(session: &mut Session, line: &[u8]) -> String {
    let mut input = line.to_vec();
    input.push(b'\n');
    let out = serve(session, &input);
    let blank = std::str::from_utf8(line).is_ok_and(|l| l.trim().is_empty());
    if blank {
        assert_eq!(out, "", "a blank line is skipped");
        return out;
    }
    let response = out.strip_suffix('\n').unwrap_or(&out);
    assert!(!response.contains('\n'), "one response line: {out}");
    let value = serde_json::parse_value_str(response)
        .unwrap_or_else(|e| panic!("{e}: {response} (request {line:?})"));
    assert!(
        matches!(value.get("ok"), Some(Value::Bool(_))),
        "no boolean ok: {response}"
    );
    out
}

/// Mass and weight conservation over the occupied bins.
fn check_conservation(session: &Session) {
    let engine = session.engine();
    let occupied = engine.nonempty_bins_list().expect("a load engine");
    let balls: u64 = occupied
        .iter()
        .map(|&b| u64::from(engine.bin_load(b as usize)))
        .sum();
    let weight: u64 = occupied
        .iter()
        .map(|&b| engine.weighted_bin_load(b as usize))
        .sum();
    assert_eq!(balls, engine.balls(), "bin loads sum to balls");
    assert_eq!(
        weight,
        engine.total_weight(),
        "weighted loads sum to the weight"
    );
}

#[test]
fn mutated_requests_are_answered_and_keep_the_session_consistent() {
    let mut twins: Vec<_> = sessions().into_iter().zip(sessions()).collect();
    for (k, ((name, a), (_, b))) in twins.iter_mut().enumerate() {
        let mut rng = SplitMix64::new(0xF022 + k as u64);
        let snapshot = a.handle_line(r#"{"op":"snapshot"}"#);
        assert_eq!(b.handle_line(r#"{"op":"snapshot"}"#), snapshot);
        let state = serde_json::parse_value_str(&snapshot)
            .ok()
            .and_then(|v| v.get("state").cloned())
            .and_then(|state| serde_json::to_string(&state).ok())
            .expect("the snapshot holds a state");
        let templates = templates(&state);
        let mut round = a.engine().round();
        for case in 0..CASES {
            let members = templates[below(&mut rng, templates.len())].clone();
            let compact = encode(&mut rng, &members, false);
            let varied = encode(&mut rng, &members, true);
            let answer = send(a, compact.as_bytes());
            assert_eq!(
                send(b, varied.as_bytes()),
                answer,
                "{name} case {case}: {compact} re-encoded as {varied:?}"
            );
            let restored = |answer: &str| {
                answer.starts_with(r#"{"ok":true,"engine""#) && answer.contains(r#""round":"#)
            };
            let mut check = |session: &Session, answer: &str| {
                check_conservation(session);
                let now = session.engine().round();
                assert!(
                    now >= round || restored(answer),
                    "{name} case {case}: round {round} -> {now} on {answer}"
                );
                round = now;
            };
            check(a, &answer);
            let line = mutate(&mut rng, members);
            let answer = send(a, &line);
            assert_eq!(send(b, &line), answer, "{name} case {case}: {line:?}");
            check(a, &answer);
        }
    }
}
