//! Sessions and a `serve_lines` helper shared by the request-path tests.

use rbb_serve::{serve_lines, MockClock, Session};
use rbb_sim::{build_engine, ScenarioSpec};

/// Five sessions of 64 bins under `MockClock::new(1000)`, by name: dense
/// unit, weighted Zipf, d-choice, sparse and sharded.
pub fn sessions() -> Vec<(&'static str, Session)> {
    let uniform = r#""arrival":{"kind":"uniform"}"#;
    [
        ("dense", format!(r#"{uniform},"engine":"dense","seed":7"#)),
        (
            "weighted",
            format!(
                r#"{uniform},"weights":{{"kind":"zipf","s":1.0,"w_max":100}},"capacities":{{"kind":"uniform","c":56}},"seed":27"#
            ),
        ),
        (
            "dchoice",
            r#""arrival":{"kind":"d-choice","d":2},"seed":1"#.to_string(),
        ),
        ("sparse", format!(r#"{uniform},"engine":"sparse","seed":7"#)),
        (
            "sharded",
            format!(r#"{uniform},"engine":"sharded","shards":4,"seed":7"#),
        ),
    ]
    .into_iter()
    .map(|(name, fields)| {
        let text = format!(
            r#"{{"name":"protocol","n":64,"balls":null,"start":{{"kind":"one-per-bin"}},"strategy":null,"topology":{{"kind":"complete"}},"adversary":null,"horizon":{{"kind":"rounds","rounds":10}},"stop":"horizon",{fields}}}"#
        );
        let spec: ScenarioSpec = serde_json::from_str(&text).expect("a valid spec");
        let engine = build_engine(&spec).expect("a buildable spec");
        (name, Session::new(engine, Box::new(MockClock::new(1000))))
    })
    .collect()
}

/// The responses `serve_lines` writes for `requests`.
pub fn serve(session: &mut Session, requests: &[u8]) -> String {
    let mut out = Vec::new();
    serve_lines(session, requests, &mut out).expect("in-memory I/O");
    String::from_utf8(out).expect("UTF-8 responses")
}
