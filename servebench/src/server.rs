//! Building, starting and observing the release `twx-serve` binary.
//!
//! The benchmark passes only the port, the corpus files, the shard count
//! and (for durable workloads) `--store`; every other setting is the
//! server's own default, read back from its start-up banner.

use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

/// Shards the corpus is split into.
pub const SHARDS: usize = 4;

/// Linux reports `/proc/<pid>/stat` CPU times in USER_HZ ticks, which the
/// kernel ABI fixes at 100 per second.
const TICKS_PER_SEC: f64 = 100.0;

/// Builds `twx-serve` in release mode from the checkout in the working
/// directory and returns the path of the binary.
pub fn build() -> Result<PathBuf, String> {
    let cargo = std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into());
    let status = Command::new(cargo)
        .args([
            "build",
            "--release",
            "--offline",
            "--quiet",
            "-p",
            "twx-corpus",
            "--bin",
            "twx-serve",
        ])
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("run cargo: {e}"))?;
    if !status.success() {
        return Err(format!("building twx-serve failed: {status}"));
    }
    let target = std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("target"));
    let bin = target.join("release").join("twx-serve");
    if bin.is_file() {
        Ok(bin)
    } else {
        Err(format!("built twx-serve not found at {}", bin.display()))
    }
}

/// The defaults the server reported at start-up.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Banner {
    /// Worker threads of the query service.
    pub workers: usize,
    /// Per-evaluation thread bound.
    pub eval_threads: usize,
    /// Evaluation backend name (`Product`, `Vm`, ...).
    pub backend: String,
}

impl Banner {
    /// Parses the `corpus: ...` line `twx-serve` prints to stderr.
    fn parse(text: &str) -> Option<Banner> {
        let line = text.lines().find(|l| l.starts_with("corpus: "))?;
        let before = |suffix: &str| -> Option<&str> {
            let at = line.find(suffix)?;
            line[..at].rsplit(' ').next()
        };
        Some(Banner {
            workers: before(" workers")?.parse().ok()?,
            eval_threads: before(" eval threads")?.parse().ok()?,
            backend: line
                .split("backend ")
                .nth(1)?
                .split(',')
                .next()?
                .trim()
                .to_string(),
        })
    }
}

/// A running `twx-serve`.
pub struct Server {
    child: Child,
    /// Kept open so the server never writes to a closed pipe.
    _stdout: BufReader<ChildStdout>,
    /// Where it listens.
    pub addr: SocketAddr,
    /// Spawn until the `listening` line.
    pub setup: Duration,
    /// Its reported defaults.
    pub banner: Banner,
}

impl Server {
    /// Spawns the server on `files` (with `store` as its store directory
    /// when given) and waits for it to listen. `log` receives its stderr.
    pub fn start(
        bin: &Path,
        files: &[PathBuf],
        store: Option<&Path>,
        log: &Path,
    ) -> Result<Server, String> {
        let stderr = std::fs::File::create(log).map_err(|e| format!("{}: {e}", log.display()))?;
        let mut cmd = Command::new(bin);
        cmd.args(["--port", "0", "--shards", &SHARDS.to_string()]);
        if let Some(dir) = store {
            cmd.arg("--store").arg(dir);
        }
        cmd.args(files)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(stderr);
        let began = Instant::now();
        let mut child = cmd.spawn().map_err(|e| format!("spawn twx-serve: {e}"))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
        let mut line = String::new();
        let read = stdout.read_line(&mut line);
        let setup = began.elapsed();
        let addr = match read {
            Ok(n) if n > 0 => line
                .trim()
                .strip_prefix("twx-serve listening on ")
                .and_then(|a| a.parse().ok()),
            _ => None,
        };
        let Some(addr) = addr else {
            let _ = child.kill();
            let _ = child.wait();
            let log_text = std::fs::read_to_string(log).unwrap_or_default();
            return Err(format!("twx-serve did not start: {line:?} {log_text}"));
        };
        let text = std::fs::read_to_string(log).unwrap_or_default();
        let Some(banner) = Banner::parse(&text) else {
            let _ = child.kill();
            let _ = child.wait();
            return Err(format!("no start-up banner in twx-serve stderr: {text}"));
        };
        Ok(Server {
            child,
            _stdout: stdout,
            addr,
            setup,
            banner,
        })
    }

    /// The server's process id.
    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Kills the server and waits for it to exit.
    pub fn kill(mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }

    /// Waits up to `limit` for the server to exit on its own (after a
    /// `shutdown` op), killing it past that. Returns whether it exited
    /// cleanly.
    pub fn wait_exit(mut self, limit: Duration) -> bool {
        let until = Instant::now() + limit;
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) => return status.success(),
                Ok(None) if Instant::now() < until => std::thread::sleep(Duration::from_millis(10)),
                _ => {
                    self.kill();
                    return false;
                }
            }
        }
    }
}

/// Process CPU time (user + system) of `pid` in seconds.
pub fn cpu_seconds(pid: u32) -> Option<f64> {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).ok()?;
    // fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line
    let rest = &stat[stat.rfind(')')? + 2..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let utime: f64 = fields.get(11)?.parse().ok()?;
    let stime: f64 = fields.get(12)?.parse().ok()?;
    Some((utime + stime) / TICKS_PER_SEC)
}

/// CPU time the hypervisor gave other guests while this host's CPUs
/// wanted to run (the `steal` column of `/proc/stat`), in seconds
/// summed over CPUs.
pub fn host_steal_seconds() -> Option<f64> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let cpu = stat.lines().next()?.strip_prefix("cpu ")?;
    let steal: f64 = cpu.split_whitespace().nth(7)?.parse().ok()?;
    Some(steal / TICKS_PER_SEC)
}

/// A numeric field of `/proc/<pid>/status` (e.g. `VmHWM` in kB,
/// `Threads`).
pub fn status_field(pid: u32, key: &str) -> Option<u64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.split(':').next() == Some(key))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// Bytes of regular files under `dir`, recursively.
pub fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn banner_parses_the_start_up_line() {
        let text = "corpus: 8 docs / 400000 nodes in 4 shards; 2 workers, 2 dispatchers, \
                    1 eval threads, backend Product, max 10000 conns; store x\n";
        assert_eq!(
            Banner::parse(text),
            Some(Banner {
                workers: 2,
                eval_threads: 1,
                backend: "Product".into()
            })
        );
    }
}
