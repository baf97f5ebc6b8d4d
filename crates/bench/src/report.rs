//! Shared measured-bench reporting: one flag parser and one JSON-line
//! builder for every bench bin.
//!
//! Each measured bench writes newline-delimited JSON — one self-
//! contained object per cell — to a `--out` path under `results/`.
//! Before this module each bin hand-rolled its own `parse_args` and
//! `json_line`; they now share [`BenchOpts::parse`] and [`JsonLine`]
//! (still built on `panda_obs::json`, so every emitted line is
//! validated before it reaches disk) and [`write_lines`] for the
//! create-dir/write/announce tail.

use panda_obs::json;

/// The common bench flags: `--quick` (CI-sized run), `--csv`
/// (machine-readable table to stdout, where the bin supports it), and
/// `--out <path>` (JSON-lines destination).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BenchOpts {
    /// Run the CI-sized configuration.
    pub quick: bool,
    /// Emit a CSV table instead of the human-readable one.
    pub csv: bool,
    /// Destination path for the JSON-lines report.
    pub out: String,
}

impl BenchOpts {
    /// Parse `std::env::args`. `default_out` is the bin's committed
    /// artifact path (e.g. `results/BENCH_disk.json`); `accepts_csv`
    /// controls whether `--csv` is advertised and accepted. Exits with
    /// status 2 on an unknown flag, like every bench bin always has.
    pub fn parse(default_out: &str, accepts_csv: bool) -> BenchOpts {
        let mut opts = BenchOpts {
            quick: false,
            csv: false,
            out: default_out.to_string(),
        };
        let supported = if accepts_csv {
            "--quick --csv --out <path>"
        } else {
            "--quick --out <path>"
        };
        let mut args = std::env::args().skip(1);
        while let Some(arg) = args.next() {
            match arg.as_str() {
                "--quick" => opts.quick = true,
                "--csv" if accepts_csv => opts.csv = true,
                "--out" => match args.next() {
                    Some(path) => opts.out = path,
                    None => {
                        eprintln!("--out requires a path");
                        std::process::exit(2);
                    }
                },
                other => {
                    eprintln!("unknown option {other}; supported: {supported}");
                    std::process::exit(2);
                }
            }
        }
        opts
    }
}

/// Builder for one JSON object line. Keys are appended in call order;
/// [`JsonLine::finish`] closes the object and validates it, so a bench
/// cannot commit malformed output.
#[derive(Debug)]
pub struct JsonLine {
    buf: String,
}

impl JsonLine {
    /// Start a line with its `"id"` field (the cell's stable
    /// identifier, e.g. `"disk/localfs/per_file/depth2"`).
    pub fn new(id: &str) -> JsonLine {
        let mut buf = String::with_capacity(512);
        buf.push_str("{\"id\":");
        json::push_str(&mut buf, id);
        JsonLine { buf }
    }

    /// Append a string field.
    pub fn str(mut self, key: &str, value: &str) -> JsonLine {
        json::push_key(&mut self.buf, key);
        json::push_str(&mut self.buf, value);
        self
    }

    /// Append a float field (formatted by `panda_obs::json::push_f64`).
    pub fn f64(mut self, key: &str, value: f64) -> JsonLine {
        json::push_key(&mut self.buf, key);
        json::push_f64(&mut self.buf, value);
        self
    }

    /// Append an integer field.
    pub fn u64(mut self, key: &str, value: u64) -> JsonLine {
        json::push_key(&mut self.buf, key);
        self.buf.push_str(&value.to_string());
        self
    }

    /// Append a `usize` field.
    pub fn usize(self, key: &str, value: usize) -> JsonLine {
        self.u64(key, value as u64)
    }

    /// Append a pre-serialized JSON value (e.g.
    /// `RunReport::to_json()`); validated with the whole line at
    /// [`JsonLine::finish`].
    pub fn raw(mut self, key: &str, value_json: &str) -> JsonLine {
        json::push_key(&mut self.buf, key);
        self.buf.push_str(value_json);
        self
    }

    /// Close and validate the line.
    pub fn finish(mut self) -> String {
        self.buf.push('}');
        json::validate(&self.buf).expect("bench emitted invalid JSON");
        self.buf
    }
}

/// Write the bench's JSON lines to `out` (creating parent directories)
/// and announce the path — the shared tail of every bench `main`.
pub fn write_lines(out: &str, lines: &[String]) {
    let mut doc = String::new();
    for line in lines {
        doc.push_str(line);
        doc.push('\n');
    }
    if let Some(dir) = std::path::Path::new(out).parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir).expect("create output directory");
        }
    }
    std::fs::write(out, &doc).expect("write bench report");
    println!("wrote {out}");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_line_builds_valid_objects() {
        let line = JsonLine::new("bench/cell/1")
            .str("mode", "tuned")
            .u64("bytes", 4096)
            .usize("depth", 2)
            .f64("wall_s", 0.125)
            .raw("nested", "{\"a\":[1,2]}")
            .finish();
        assert!(line.starts_with("{\"id\":\"bench/cell/1\""));
        assert!(line.contains("\"mode\":\"tuned\""));
        assert!(line.contains("\"bytes\":4096"));
        assert!(line.contains("\"depth\":2"));
        assert!(line.contains("\"nested\":{\"a\":[1,2]}"));
        json::validate(&line).unwrap();
    }

    #[test]
    #[should_panic(expected = "invalid JSON")]
    fn malformed_raw_values_are_caught_at_finish() {
        let _ = JsonLine::new("x").raw("bad", "{not json").finish();
    }

    #[test]
    fn write_lines_creates_directories() {
        let dir = std::env::temp_dir().join(format!("panda_bench_report_{}", std::process::id()));
        let path = dir.join("deep/report.json");
        let lines = vec![JsonLine::new("a").finish(), JsonLine::new("b").finish()];
        write_lines(path.to_str().unwrap(), &lines);
        let doc = std::fs::read_to_string(&path).unwrap();
        assert_eq!(doc.lines().count(), 2);
        for line in doc.lines() {
            json::validate(line).unwrap();
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
