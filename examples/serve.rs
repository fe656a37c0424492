//! The runnable daemon: build a monitor from CLI flags, serve the wire API
//! until SIGTERM/SIGINT, then drain and exit cleanly.
//!
//! ```text
//! cargo run --release --example serve -- \
//!     [--host 127.0.0.1] [--port 8722] [--engine mrio] [--lambda 1e-3] \
//!     [--shards N] [--queue-depth N] [--admission block|reject[:retry_secs]] \
//!     [--subscriber-buffer N] \
//!     [--journal-dir DIR] [--fsync always|never|interval:MS] \
//!     [--journal-max-bytes N]
//! ```
//!
//! Every monitor knob is the same registry string the bench harness uses
//! (`EngineKind` implements `FromStr`), so a daemon config is
//! copy-pasteable from a sweep config. See the README's "Running the
//! daemon" section for a curl transcript against this binary.

use continuous_topk::EngineKind;
use ctk_server::{signal, AdmissionPolicy, FsyncPolicy, ServerBuilder};
use std::time::Duration;

fn arg_value(args: &[String], flag: &str) -> Option<String> {
    args.iter().position(|a| a == flag).and_then(|i| args.get(i + 1).cloned())
}

fn parsed<T: std::str::FromStr>(args: &[String], flag: &str) -> Option<T> {
    let raw = arg_value(args, flag)?;
    match raw.parse() {
        Ok(value) => Some(value),
        Err(_) => {
            eprintln!("serve: bad value {raw:?} for {flag}");
            std::process::exit(2);
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let host = arg_value(&args, "--host").unwrap_or_else(|| "127.0.0.1".to_string());
    let port: u16 = parsed(&args, "--port").unwrap_or(8722);
    let engine: EngineKind = parsed(&args, "--engine").unwrap_or(EngineKind::Mrio);

    let mut builder = ServerBuilder::new(engine)
        .lambda(parsed(&args, "--lambda").unwrap_or(1e-3))
        .shards(parsed(&args, "--shards").unwrap_or(1));
    if let Some(depth) = parsed::<usize>(&args, "--queue-depth") {
        builder = builder.queue_depth(depth);
    }
    if let Some(raw) = arg_value(&args, "--admission") {
        let policy = match raw.as_str() {
            "block" => AdmissionPolicy::Block,
            "reject" => AdmissionPolicy::Reject { retry_after: 1.0 },
            other => match other.strip_prefix("reject:").and_then(|s| s.parse().ok()) {
                Some(retry_after) => AdmissionPolicy::Reject { retry_after },
                None => {
                    eprintln!("serve: bad value {raw:?} for --admission");
                    std::process::exit(2);
                }
            },
        };
        builder = builder.admission(policy);
    }
    if let Some(capacity) = parsed::<usize>(&args, "--subscriber-buffer") {
        builder = builder.subscriber_buffer(capacity);
    }
    // Durability: with a journal dir every mutating command is written (and
    // under `--fsync always`, synced) before its HTTP ack; a restart on the
    // same dir replays the tail. Without one the daemon is memory-only.
    if let Some(dir) = arg_value(&args, "--journal-dir") {
        builder = builder.journal_dir(dir);
    }
    if let Some(fsync) = parsed::<FsyncPolicy>(&args, "--fsync") {
        builder = builder.fsync(fsync);
    }
    if let Some(max_bytes) = parsed::<u64>(&args, "--journal-max-bytes") {
        builder = builder.journal_max_bytes(max_bytes);
    }

    signal::install();
    let server = match builder.bind((host.as_str(), port)) {
        Ok(server) => server,
        Err(e) => {
            eprintln!("serve: cannot bind {host}:{port}: {e}");
            std::process::exit(1);
        }
    };
    println!("serve: {engine} monitor listening on http://{}", server.addr());
    println!("serve: SIGTERM/SIGINT drains in-flight publishes, then exits");

    while !signal::requested() {
        std::thread::sleep(Duration::from_millis(100));
    }
    println!("serve: termination signal received; draining");
    server.shutdown();
    println!("serve: drained and stopped");
}
