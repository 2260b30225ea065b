//! The protocol's bytes, pinned. `protocol/requests.txt` is a corpus of
//! request lines: every op and optional field, `null` fields, whitespace
//! and member-order variants, escaped and duplicate keys, numbers at the
//! edges, wrong-typed fields, lines that are not one object, malformed
//! JSON and nesting past the parser's limit. Replayed through
//! `serve_lines`, it must get byte for byte the answers in
//! `protocol/<session>.out`. Those were recorded through
//! `Session::handle_line` under `MockClock::new(1000)` while requests were
//! still parsed into a JSON tree, on five sessions of 64 bins: dense unit,
//! weighted Zipf, d-choice, sparse and sharded. Lines 74–76 hold numbers
//! JSON forbids (`01`, `1.`, `+1`); their answers, and so the counts of
//! the closing `stats` line, were re-recorded when the parser began to
//! refuse them.
//!
//! The lines whose answers changed since then are kept apart, in
//! `protocol/refused.txt`: each names a field its op does not read, or a
//! `path` that is not a string. Those fields used to be ignored and are
//! now refused, with the errors in `protocol/refused.out`.

use std::path::Path;

mod common;

use common::{serve, sessions};

fn read(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/protocol")
        .join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

#[test]
fn the_corpus_gets_the_recorded_answers_on_every_session_kind() {
    let requests = read("requests.txt");
    for (name, mut session) in sessions() {
        let want = read(&format!("{name}.out"));
        let got = serve(&mut session, requests.as_bytes());
        for (i, (request, (got, want))) in requests
            .lines()
            .zip(got.lines().zip(want.lines()))
            .enumerate()
        {
            assert_eq!(got, want, "{name} session, line {}: {request}", i + 1);
        }
        assert_eq!(got, want, "{name} session: the answers differ in number");
        assert!(session.is_shutdown(), "{name}: the corpus ends in shutdown");
    }
}

#[test]
fn refused_fields_get_the_recorded_errors_and_change_nothing() {
    let refused = read("refused.txt");
    let want = read("refused.out");
    assert_eq!(refused.lines().count(), want.lines().count());
    for (name, mut session) in sessions() {
        let before = session.handle_line(r#"{"op":"snapshot"}"#);
        assert_eq!(
            serve(&mut session, refused.as_bytes()),
            want,
            "{name} session"
        );
        // No ball placed or removed, no round run, no draw from the
        // stream, and no shutdown.
        let after = session.handle_line(r#"{"op":"snapshot"}"#);
        assert_eq!(after, before, "{name} session");
        assert!(!session.is_shutdown(), "{name} session");
    }
}
