//! `rbb-serve` — the allocation daemon binary.
//!
//! ```text
//! rbb-serve --stdio [engine flags]          serve one session over stdin/stdout
//! rbb-serve --socket PATH [engine flags]    serve sequential sessions on a Unix socket
//! rbb-serve --tcp ADDR [engine flags]       serve sequential sessions on a TCP socket
//! rbb-serve --connect PATH                  client: forward stdin lines to a Unix-socket daemon
//!
//! engine flags:
//!   --spec FILE        build the engine from a scenario spec (JSON)
//!   --engine KIND      dense | sparse | sharded | auto (overrides the spec)
//!   --shards K         shard count for the sharded engine
//!   --n N              bins for the default spec (default 1024)
//!   --seed S           seed for the default spec (default 1)
//!   --mock-clock       fixed-tick clock: deterministic stats responses
//! ```
//!
//! The daemon answers one line-JSON response per request line; see
//! `rbb_serve::session` for the protocol. Socket modes accept connections
//! sequentially (one session at a time — the engine is single-threaded
//! state) and exit after a connection issues `shutdown`. A failure inside
//! one connection is reported on stderr and the daemon accepts the next.

use std::io::{BufRead, BufReader, BufWriter, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};

use rbb_serve::clock::{Clock, MockClock, MonotonicClock};
use rbb_serve::session::{serve_lines, Session};
use rbb_sim::spec::EngineSpec;
use rbb_sim::{build_engine, ScenarioSpec};
use serde::Deserialize as _;

/// Everything the command line configures.
struct Args {
    mode: Mode,
    spec_path: Option<String>,
    engine: Option<EngineSpec>,
    shards: Option<usize>,
    n: usize,
    seed: u64,
    mock_clock: bool,
}

enum Mode {
    Stdio,
    Socket(String),
    Tcp(String),
    Connect(String),
}

fn main() {
    if let Err(e) = run() {
        eprintln!("rbb-serve: {e}");
        std::process::exit(1);
    }
}

fn run() -> Result<(), String> {
    let args = parse_args(std::env::args().skip(1))?;
    match &args.mode {
        Mode::Connect(path) => return client(path),
        Mode::Stdio => {
            let mut session = build_session(&args)?;
            let stdin = std::io::stdin();
            let stdout = std::io::stdout();
            serve_lines(&mut session, stdin.lock(), BufWriter::new(stdout.lock()))
                .map_err(|e| format!("stdio session: {e}"))?;
        }
        Mode::Socket(path) => {
            let mut session = build_session(&args)?;
            // A stale socket file from a previous daemon would make bind fail.
            let _ = std::fs::remove_file(path);
            let listener = UnixListener::bind(path).map_err(|e| format!("binding {path}: {e}"))?;
            let served = accept_loop(&mut session, listener.incoming(), std::io::stderr());
            let _ = std::fs::remove_file(path);
            served.map_err(|e| format!("accept on {path}: {e}"))?;
        }
        Mode::Tcp(addr) => {
            let mut session = build_session(&args)?;
            let listener = TcpListener::bind(addr).map_err(|e| format!("binding {addr}: {e}"))?;
            accept_loop(&mut session, listener.incoming(), std::io::stderr())
                .map_err(|e| format!("accept on {addr}: {e}"))?;
        }
    }
    Ok(())
}

/// An accepted connection, split into its request reader and its response
/// writer.
trait Connection {
    fn split(self) -> std::io::Result<(impl BufRead, impl Write)>;
}

impl Connection for UnixStream {
    fn split(self) -> std::io::Result<(impl BufRead, impl Write)> {
        Ok((BufReader::new(self.try_clone()?), BufWriter::new(self)))
    }
}

impl Connection for TcpStream {
    fn split(self) -> std::io::Result<(impl BufRead, impl Write)> {
        Ok((BufReader::new(self.try_clone()?), BufWriter::new(self)))
    }
}

/// Serves accepted connections one after another until one of them issues
/// `shutdown`. An error inside one connection goes to `log` and the loop
/// accepts the next; only a failed accept ends it.
fn accept_loop<C: Connection>(
    session: &mut Session,
    conns: impl IntoIterator<Item = std::io::Result<C>>,
    mut log: impl Write,
) -> std::io::Result<()> {
    for conn in conns {
        let served = conn?
            .split()
            .and_then(|(reader, writer)| serve_lines(session, reader, writer));
        if let Err(e) = served {
            let _ = writeln!(log, "rbb-serve: connection dropped: {e}");
        }
        if session.is_shutdown() {
            break;
        }
    }
    Ok(())
}

/// Client mode: lockstep request/response forwarding so scripted drivers
/// (like the `ci.sh` serve stage) can talk to a Unix-socket daemon with
/// nothing but this binary.
fn client(path: &str) -> Result<(), String> {
    let stream = UnixStream::connect(path).map_err(|e| format!("connecting to {path}: {e}"))?;
    let mut reader = BufReader::new(
        stream
            .try_clone()
            .map_err(|e| format!("socket clone: {e}"))?,
    );
    let mut writer = BufWriter::new(stream);
    let stdin = std::io::stdin();
    let stdout = std::io::stdout();
    let mut out = stdout.lock();
    for line in stdin.lock().lines() {
        let line = line.map_err(|e| format!("stdin: {e}"))?;
        if line.trim().is_empty() {
            continue;
        }
        writer
            .write_all(line.as_bytes())
            .and_then(|()| writer.write_all(b"\n"))
            .and_then(|()| writer.flush())
            .map_err(|e| format!("writing to daemon: {e}"))?;
        let mut response = String::new();
        let got = reader
            .read_line(&mut response)
            .map_err(|e| format!("reading from daemon: {e}"))?;
        if got == 0 {
            return Err("daemon closed the connection".to_string());
        }
        out.write_all(response.as_bytes())
            .and_then(|()| out.flush())
            .map_err(|e| format!("stdout: {e}"))?;
    }
    Ok(())
}

fn parse_args(argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        mode: Mode::Stdio,
        spec_path: None,
        engine: None,
        shards: None,
        n: 1024,
        seed: 1,
        mock_clock: false,
    };
    let mut mode_set = false;
    let mut argv = argv.peekable();
    while let Some(flag) = argv.next() {
        let mut value = |name: &str| argv.next().ok_or_else(|| format!("{name} needs a value"));
        match flag.as_str() {
            "--stdio" => {
                args.mode = Mode::Stdio;
                mode_set = true;
            }
            "--socket" => {
                args.mode = Mode::Socket(value("--socket")?);
                mode_set = true;
            }
            "--tcp" => {
                args.mode = Mode::Tcp(value("--tcp")?);
                mode_set = true;
            }
            "--connect" => {
                args.mode = Mode::Connect(value("--connect")?);
                mode_set = true;
            }
            "--spec" => args.spec_path = Some(value("--spec")?),
            "--engine" => {
                let name = serde::Value::Str(value("--engine")?);
                let engine =
                    EngineSpec::deserialize(&name).map_err(|e| format!("--engine: {e}"))?;
                args.engine = Some(engine);
            }
            "--shards" => {
                let k: usize = value("--shards")?
                    .parse()
                    .map_err(|e| format!("--shards: {e}"))?;
                args.shards = Some(k);
            }
            "--n" => {
                args.n = value("--n")?.parse().map_err(|e| format!("--n: {e}"))?;
            }
            "--seed" => {
                args.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--mock-clock" => args.mock_clock = true,
            "--help" | "-h" => {
                return Err(
                    "usage: rbb-serve (--stdio | --socket PATH | --tcp ADDR | --connect PATH) \
                     [--spec FILE] [--engine KIND] [--shards K] [--n N] [--seed S] [--mock-clock]"
                        .to_string(),
                )
            }
            other => return Err(format!("unknown flag '{other}' (try --help)")),
        }
    }
    if !mode_set {
        return Err(
            "pick a mode: --stdio, --socket PATH, --tcp ADDR, or --connect PATH".to_string(),
        );
    }
    Ok(args)
}

/// Builds the spec (file or defaults), applies overrides, validates, and
/// wraps the engine into a session. Validation bounds a dense or sharded
/// session by [`MAX_DENSE_BINS`], the most bins a `restore` allocates, so
/// that every snapshot it takes restores.
///
/// [`MAX_DENSE_BINS`]: rbb_core::load::MAX_DENSE_BINS
fn build_session(args: &Args) -> Result<Session, String> {
    let mut spec = match &args.spec_path {
        Some(path) => {
            let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
            serde_json::from_str::<ScenarioSpec>(&text)
                .map_err(|e| format!("parsing {path}: {e}"))?
        }
        None => ScenarioSpec::builder(args.n)
            .name("serve-session")
            .seed(args.seed)
            .build(),
    };
    if let Some(engine) = args.engine {
        spec.engine = Some(engine);
    }
    if let Some(shards) = args.shards {
        spec.shards = Some(shards);
    }
    let engine = build_engine(&spec).map_err(|e| format!("building the engine: {e}"))?;
    let clock: Box<dyn Clock> = if args.mock_clock {
        Box::new(MockClock::new(1000))
    } else {
        Box::new(MonotonicClock::new())
    };
    Ok(Session::new(engine, clock))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;
    use std::rc::Rc;

    /// A scripted connection: fixed request bytes in, responses into a
    /// shared buffer, or a writer that fails every write.
    struct Scripted {
        requests: &'static [u8],
        responses: Option<Rc<RefCell<Vec<u8>>>>,
    }

    struct Sink(Option<Rc<RefCell<Vec<u8>>>>);

    impl Write for Sink {
        fn write(&mut self, bytes: &[u8]) -> std::io::Result<usize> {
            match &self.0 {
                Some(out) => out.borrow_mut().write(bytes),
                None => Err(std::io::ErrorKind::BrokenPipe.into()),
            }
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    impl Connection for Scripted {
        fn split(self) -> std::io::Result<(impl BufRead, impl Write)> {
            Ok((self.requests, Sink(self.responses)))
        }
    }

    #[test]
    fn sessions_above_the_restore_limit_are_refused_before_building() {
        let limit = rbb_core::load::MAX_DENSE_BINS;
        let over = (limit + 1).to_string();
        for engine in ["dense", "sharded"] {
            let argv = ["--stdio", "--n", &over, "--engine", engine];
            let args = parse_args(argv.iter().map(|a| a.to_string())).unwrap();
            let err = build_session(&args).err().expect("refused");
            assert!(err.contains(&limit.to_string()), "{err}");
            assert!(err.contains(r#""engine": "sparse""#), "{err}");
        }
    }

    #[test]
    fn a_failing_connection_is_logged_and_the_next_is_served() {
        let mut session = Session::new(
            Box::new(rbb_core::process::LoadProcess::legitimate_start(16, 1)),
            Box::new(MockClock::new(1)),
        );
        let good = Rc::new(RefCell::new(Vec::new()));
        let after = Rc::new(RefCell::new(Vec::new()));
        let conns = [
            Scripted {
                requests: b"{\"op\":\"place\"}\n",
                responses: None,
            },
            Scripted {
                requests: b"{\"op\":\"query\"}\n{\"op\":\"shutdown\"}\n",
                responses: Some(good.clone()),
            },
            Scripted {
                requests: b"{\"op\":\"query\"}\n",
                responses: Some(after.clone()),
            },
        ];
        let mut log = Vec::new();
        accept_loop(&mut session, conns.map(Ok), &mut log).unwrap();
        let log = String::from_utf8(log).unwrap();
        assert_eq!(log.lines().count(), 1, "{log}");
        assert!(log.contains("connection dropped"), "{log}");
        let good = String::from_utf8(good.take()).unwrap();
        let lines: Vec<&str> = good.lines().collect();
        assert_eq!(lines.len(), 2, "{good}");
        // The failed connection's placement happened before its write.
        assert!(lines[0].contains(r#""balls":17"#), "{good}");
        assert!(lines[1].contains("shutting_down"), "{good}");
        assert!(
            after.borrow().is_empty(),
            "served a connection after shutdown"
        );
    }
}
