//! Machine-readable experiment output: JSON records and CSV series, written
//! under `results/` so EXPERIMENTS.md numbers can be regenerated and diffed;
//! and the binaries' stdout, which ends quietly when its reader has gone.

use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};

use serde::Serialize;

/// Makes a closed stdout end the process quietly with status 0, the way a
/// closed pipe ends a program that does not ignore `SIGPIPE`
/// (`rbb sim … | head -2`). Rust ignores `SIGPIPE`, so the write fails with
/// a broken-pipe error and `print!` panics on it; the hook this installs
/// turns exactly that panic into the exit and hands every other panic to
/// the hook it replaces. `print!` stays the way to write, so the test
/// harness still captures what library code prints. The binaries call this
/// first in `main`.
pub fn exit_quietly_on_closed_stdout() {
    let closed = (1..=255)
        .map(std::io::Error::from_raw_os_error)
        .find(|e| e.kind() == std::io::ErrorKind::BrokenPipe)
        .map(|e| format!("failed printing to stdout: {e}"));
    let previous = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        if closed.is_some() && info.payload().downcast_ref::<String>() == closed.as_ref() {
            std::process::exit(0);
        }
        previous(info);
    }));
}

/// Where experiment artifacts land (relative to the workspace root).
pub const RESULTS_DIR: &str = "results";

/// A sink for one experiment's artifacts.
#[derive(Debug, Clone)]
pub struct OutputSink {
    dir: PathBuf,
    /// When false (default for tests / --no-write), writes are skipped.
    enabled: bool,
}

impl OutputSink {
    /// A sink writing into `base/experiment_id/`.
    pub fn new(base: impl AsRef<Path>, experiment_id: &str, enabled: bool) -> Self {
        Self {
            dir: base.as_ref().join(experiment_id),
            enabled,
        }
    }

    /// A disabled sink (all writes are no-ops).
    pub fn disabled() -> Self {
        Self {
            dir: PathBuf::new(),
            enabled: false,
        }
    }

    /// Whether writes are performed.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// The output directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Writes a serializable record as pretty JSON to `name.json`.
    pub fn write_json<T: Serialize>(&self, name: &str, value: &T) -> std::io::Result<()> {
        if !self.enabled {
            return Ok(());
        }
        fs::create_dir_all(&self.dir)?;
        let path = self.dir.join(format!("{name}.json"));
        let mut f = fs::File::create(path)?;
        // rbb-lint: allow(panic, reason = "serializing a plain data struct is infallible")
        let s = serde_json::to_string_pretty(value).expect("serialization cannot fail");
        f.write_all(s.as_bytes())?;
        f.write_all(b"\n")
    }

    /// Writes rows of `f64` as CSV with a header to `name.csv`.
    pub fn write_csv(&self, name: &str, header: &[&str], rows: &[Vec<f64>]) -> std::io::Result<()> {
        if !self.enabled {
            return Ok(());
        }
        fs::create_dir_all(&self.dir)?;
        let path = self.dir.join(format!("{name}.csv"));
        let mut f = fs::File::create(path)?;
        writeln!(f, "{}", header.join(","))?;
        for row in rows {
            assert_eq!(row.len(), header.len(), "CSV row arity mismatch");
            let line: Vec<String> = row.iter().map(|x| format!("{x}")).collect();
            writeln!(f, "{}", line.join(","))?;
        }
        Ok(())
    }

    /// Writes raw text to `name.txt` (e.g. the rendered table).
    pub fn write_text(&self, name: &str, text: &str) -> std::io::Result<()> {
        if !self.enabled {
            return Ok(());
        }
        fs::create_dir_all(&self.dir)?;
        fs::write(self.dir.join(format!("{name}.txt")), text)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Serialize)]
    struct Rec {
        n: usize,
        value: f64,
    }

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("rbb-output-test-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&d);
        d
    }

    #[test]
    fn disabled_sink_writes_nothing() {
        let sink = OutputSink::disabled();
        sink.write_json("x", &Rec { n: 1, value: 2.0 }).unwrap();
        assert!(!sink.enabled());
    }

    #[test]
    fn json_roundtrip() {
        let base = tmpdir("json");
        let sink = OutputSink::new(&base, "e99", true);
        sink.write_json("rec", &Rec { n: 5, value: 1.5 }).unwrap();
        let text = fs::read_to_string(base.join("e99/rec.json")).unwrap();
        assert!(text.contains("\"n\": 5"));
        fs::remove_dir_all(&base).unwrap();
    }

    #[test]
    fn csv_rows_written() {
        let base = tmpdir("csv");
        let sink = OutputSink::new(&base, "e98", true);
        sink.write_csv("series", &["t", "m"], &[vec![1.0, 2.0], vec![3.0, 4.5]])
            .unwrap();
        let text = fs::read_to_string(base.join("e98/series.csv")).unwrap();
        assert_eq!(text, "t,m\n1,2\n3,4.5\n");
        fs::remove_dir_all(&base).unwrap();
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn csv_arity_checked() {
        let base = tmpdir("arity");
        let sink = OutputSink::new(&base, "e97", true);
        let _ = sink.write_csv("bad", &["a", "b"], &[vec![1.0]]);
    }

    #[test]
    fn text_written() {
        let base = tmpdir("text");
        let sink = OutputSink::new(&base, "e96", true);
        sink.write_text("table", "hello\n").unwrap();
        assert_eq!(
            fs::read_to_string(base.join("e96/table.txt")).unwrap(),
            "hello\n"
        );
        fs::remove_dir_all(&base).unwrap();
    }
}
