//! `ctk-serve`: the monitor daemon, and the one place command-line flags
//! become a running [`ServerBuilder`]. The crash-recovery tests, the CI
//! smoke scenarios and the benchmark all start this binary.
//!
//! ```text
//! ctk-serve [--host 127.0.0.1] [--port 8722] [--engine mrio]
//!           [--lambda 1e-3] [--shards N] [--queue-depth N]
//!           [--admission block|reject|reject:<secs>]
//!           [--journal-dir DIR] [--fsync always|never|interval:<ms>]
//!           [--journal-max-bytes N]
//! ```
//!
//! Every token must be one of these flags followed by its value: anything
//! else (an unknown flag, a flag with no value, a bad value) exits 2 naming
//! it. The daemon runs MRIO only, so `--engine` accepts `mrio` alone. A value the server cannot run with exits 1 with a "cannot start"
//! line naming the knob.
//!
//! Prints `ctk-serve: listening on http://ADDR` on stdout (flushed) once the
//! listener is bound — with `--port 0` that line is how a harness learns the
//! ephemeral port. Runs until SIGTERM/SIGINT, then drains and exits.

use continuous_topk::{EngineKind, MonitorBuilder};
use ctk_server::{signal, AdmissionPolicy, FsyncPolicy, ServerBuilder};
use std::collections::HashMap;
use std::io::Write;
use std::str::FromStr;
use std::time::Duration;

const FLAGS: [&str; 10] = [
    "--host",
    "--port",
    "--engine",
    "--lambda",
    "--shards",
    "--queue-depth",
    "--admission",
    "--journal-dir",
    "--fsync",
    "--journal-max-bytes",
];

fn usage(message: String) -> ! {
    eprintln!("ctk-serve: {message}");
    eprintln!("ctk-serve: flags: {}", FLAGS.join(" "));
    std::process::exit(2);
}

/// argv as flag → value. Every token must be a known flag followed by a
/// value that does not itself look like a flag.
fn flags() -> HashMap<&'static str, String> {
    let mut flags = HashMap::new();
    let mut args = std::env::args().skip(1);
    while let Some(token) = args.next() {
        let Some(flag) = FLAGS.into_iter().find(|flag| *flag == token) else {
            usage(format!("unknown flag {token:?}"));
        };
        match args.next() {
            Some(value) if !value.starts_with("--") => flags.insert(flag, value),
            _ => usage(format!("{flag} needs a value")),
        };
    }
    flags
}

fn parsed<T: FromStr>(flags: &HashMap<&str, String>, flag: &str) -> Option<T> {
    let raw = flags.get(flag)?;
    Some(raw.parse().unwrap_or_else(|_| usage(format!("bad value {raw:?} for {flag}"))))
}

fn main() {
    let flags = flags();
    let host = flags.get("--host").map_or("127.0.0.1", String::as_str);
    let port: u16 = parsed(&flags, "--port").unwrap_or(8722);
    if parsed(&flags, "--engine").is_some_and(|kind: EngineKind| kind != EngineKind::Mrio) {
        usage(format!("bad value {:?} for --engine (the daemon runs mrio)", flags["--engine"]));
    }
    let monitor = MonitorBuilder::new(EngineKind::Mrio)
        .lambda(parsed(&flags, "--lambda").unwrap_or(1e-3))
        .shards(parsed(&flags, "--shards").unwrap_or(1));
    let mut builder = ServerBuilder::new(monitor);
    if let Some(depth) = parsed(&flags, "--queue-depth") {
        builder = builder.queue_depth(depth);
    }
    if let Some(policy) = parsed::<AdmissionPolicy>(&flags, "--admission") {
        builder = builder.admission(policy);
    }
    if let Some(dir) = flags.get("--journal-dir") {
        builder = builder.journal_dir(dir);
    }
    if let Some(policy) = parsed::<FsyncPolicy>(&flags, "--fsync") {
        builder = builder.fsync(policy);
    }
    if let Some(bytes) = parsed(&flags, "--journal-max-bytes") {
        builder = builder.journal_max_bytes(bytes);
    }

    signal::install();
    let server = match builder.bind((host, port)) {
        Ok(server) => server,
        Err(e) => {
            eprintln!("ctk-serve: cannot start on {host}:{port}: {e}");
            std::process::exit(1);
        }
    };
    // Flushed immediately: harnesses block on this line to learn the port.
    println!("ctk-serve: listening on http://{}", server.addr());
    let _ = std::io::stdout().flush();

    while !signal::requested() {
        std::thread::sleep(Duration::from_millis(100));
    }
    eprintln!("ctk-serve: termination signal received; draining");
    server.shutdown();
    eprintln!("ctk-serve: drained and stopped");
}
