//! `ctk-serve` refuses flag values it cannot run with: it prints its
//! "cannot start" line naming the knob and exits 1, without a panic. A
//! token it cannot parse as a known flag and its value exits 2 naming it.

use std::io::{BufRead, BufReader};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// Start `ctk-serve --port 0` with `flags`, wait (bounded) for it to exit,
/// and return its exit code and stderr.
fn refused(flags: &[&str]) -> (Option<i32>, String) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_ctk-serve"))
        .args(["--port", "0"])
        .args(flags)
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn ctk-serve");
    // A daemon that did start would run until signalled: bound the wait.
    let deadline = Instant::now() + Duration::from_secs(30);
    while child.try_wait().expect("poll ctk-serve").is_none() {
        if Instant::now() > deadline {
            let _ = child.kill();
            panic!("{flags:?}: ctk-serve started instead of refusing");
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    let out = child.wait_with_output().expect("collect ctk-serve");
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    assert!(!stderr.contains("panicked"), "{flags:?}: {stderr}");
    (out.status.code(), stderr)
}

#[test]
fn unusable_flag_values_exit_1_naming_the_knob() {
    let cases = [
        (["--shards", "0"], "shards"),
        // One engine serves every query: `1` is the flag's one value.
        (["--shards", "2"], "shards"),
        (["--queue-depth", "0"], "queue_depth"),
        (["--lambda", "-1"], "lambda"),
        (["--lambda", "nan"], "lambda"),
    ];
    for (flag, knob) in cases {
        let (code, stderr) = refused(&flag);
        assert_eq!(code, Some(1), "{flag:?}: {stderr}");
        assert!(stderr.contains("cannot start") && stderr.contains(knob), "{flag:?}: {stderr}");
    }
}

#[test]
fn unknown_flags_and_missing_values_exit_2_naming_the_flag() {
    let cases: [(&[&str], &str); 9] = [
        (&["--journal-dri", "x"], "--journal-dri"),
        (&["--fsync"], "--fsync"),
        (&["--subscriber-buffer", "8"], "--subscriber-buffer"),
        (&["--journal-dir", "--fsync", "never"], "--journal-dir"),
        (&["--admission", "reject:nan"], "--admission"),
        (&["--fsync", "sometimes"], "--fsync"),
        // The daemon runs MRIO only: neither the comparators of the
        // paper's evaluation nor the oracle are daemon engines.
        (&["--engine", "rta"], "--engine"),
        (&["--engine", "mrio-block"], "--engine"),
        (&["--engine", "naive"], "--engine"),
    ];
    for (flags, named) in cases {
        let (code, stderr) = refused(flags);
        assert_eq!(code, Some(2), "{flags:?}: {stderr}");
        assert!(stderr.contains(named), "{flags:?}: {stderr}");
    }
}

/// `--shards 1` is the value the benchmark's harness passes, and it still
/// starts the daemon.
#[test]
fn the_flag_value_1_for_shards_still_starts() {
    let mut child = Command::new(env!("CARGO_BIN_EXE_ctk-serve"))
        .args(["--port", "0", "--shards", "1"])
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn ctk-serve");
    let mut line = String::new();
    BufReader::new(child.stdout.take().unwrap()).read_line(&mut line).expect("read stdout");
    let _ = child.kill();
    let _ = child.wait();
    assert!(line.starts_with("ctk-serve: listening on http://"), "{line:?}");
}
