//! The `ctk-serve` child process: built from source by a pre-step, started on
//! port 0 with its journal under the scratch directory, and always reaped.

use ctk_server::HttpClient;
use std::io::{self, BufRead, BufReader};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::Duration;

/// The repository root: `bench_ledger/` sits directly below it.
fn repo_root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR")).parent().expect("bench_ledger has a parent directory")
}

/// The cargo target directory this executable was built into — the
/// ancestor holding its `release/` (or `debug/`) directory.
pub fn target_dir() -> io::Result<PathBuf> {
    let exe = std::env::current_exe()?;
    exe.ancestors()
        .find(|dir| dir.file_name().is_some_and(|name| name == "release" || name == "debug"))
        .and_then(Path::parent)
        .map(Path::to_path_buf)
        .ok_or_else(|| {
            io::Error::other(format!("{} is not under a cargo target directory", exe.display()))
        })
}

/// Everything a run writes lands under `<target>/bench_ledger/`.
pub fn scratch_dir() -> io::Result<PathBuf> {
    let dir = target_dir()?.join("bench_ledger");
    std::fs::create_dir_all(&dir)?;
    Ok(dir)
}

/// The pre-step: build the real `ctk-serve` from the repository's own
/// workspace into this executable's target directory. Cargo makes it a no-op
/// when the binary is fresh, so it runs before every invocation and a stale
/// daemon can never be measured; it is outside every timed region.
pub fn build_daemon() -> io::Result<PathBuf> {
    let target = target_dir()?;
    let status = Command::new("cargo")
        .args([
            "build",
            "--release",
            "--offline",
            "--quiet",
            "-p",
            "ctk-server",
            "--bin",
            "ctk-serve",
        ])
        .arg("--target-dir")
        .arg(&target)
        .current_dir(repo_root())
        .stdout(Stdio::null())
        .status()?;
    if !status.success() {
        return Err(io::Error::other(format!("building ctk-serve failed: {status}")));
    }
    Ok(target.join("release").join("ctk-serve"))
}

pub struct Daemon {
    child: Child,
    pub addr: SocketAddr,
    journal: PathBuf,
}

impl Daemon {
    /// Start `ctk-serve --shards 1 --fsync always|never` on an ephemeral port
    /// with a fresh journal directory, and wait until `/readyz` answers 200.
    pub fn spawn(binary: &Path, journal: PathBuf, fsync: bool) -> io::Result<Daemon> {
        let _ = std::fs::remove_dir_all(&journal);
        std::fs::create_dir_all(&journal)?;
        let mut child = Command::new(binary)
            .args(["--host", "127.0.0.1", "--port", "0", "--engine", "mrio", "--shards", "1"])
            .args(["--lambda", &crate::inputs::LAMBDA.to_string()])
            .args(["--fsync", if fsync { "always" } else { "never" }])
            .arg("--journal-dir")
            .arg(&journal)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()?;
        let mut line = String::new();
        let stdout = child.stdout.take().expect("stdout was piped");
        let read = BufReader::new(stdout).read_line(&mut line);
        // From here on the child is owned by a `Daemon`, whose drop reaps it.
        let mut daemon = Daemon { child, addr: ([127, 0, 0, 1], 0).into(), journal };
        read?;
        daemon.addr =
            line.trim().rsplit("http://").next().and_then(|addr| addr.parse().ok()).ok_or_else(
                || io::Error::other(format!("unexpected ctk-serve banner: {line:?}")),
            )?;
        let mut client = daemon.connect()?;
        match client.get("/readyz")? {
            (200, _) => Ok(daemon),
            (status, body) => Err(io::Error::other(format!("/readyz answered {status}: {body}"))),
        }
    }

    /// A fresh keep-alive connection (refused connections are retried for
    /// ten seconds; responses may take thirty).
    pub fn connect(&self) -> io::Result<HttpClient> {
        let mut client = HttpClient::connect_with_retry(self.addr, Duration::from_secs(10))?;
        client.set_read_timeout(Some(Duration::from_secs(30)))?;
        Ok(client)
    }

    /// Peak resident set of the daemon so far, MiB.
    pub fn peak_rss_mb(&self) -> io::Result<f64> {
        peak_rss_mb(&format!("/proc/{}/status", self.child.id()))
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        // SIGKILL is a clean stop for a benchmark: every result was read
        // over the wire before this, and nothing opens the journal again.
        let _ = self.child.kill();
        let _ = self.child.wait();
        let _ = std::fs::remove_dir_all(&self.journal);
    }
}

/// `VmHWM` of a `/proc/<pid>/status` file, MiB.
pub fn peak_rss_mb(status_path: &str) -> io::Result<f64> {
    let status = std::fs::read_to_string(status_path)?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| io::Error::other(format!("no VmHWM line in {status_path}")))
}
