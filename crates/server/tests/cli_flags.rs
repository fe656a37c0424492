//! `ctk-serve` refuses flag values it cannot run with: it prints its
//! "cannot start" line naming the knob and exits 1, without a panic.

use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

#[test]
fn unusable_flag_values_exit_1_naming_the_knob() {
    let cases = [
        (["--shards", "0"], "shards"),
        (["--queue-depth", "0"], "queue_depth"),
        (["--lambda", "-1"], "lambda"),
        (["--lambda", "nan"], "lambda"),
    ];
    for (flag, knob) in cases {
        let mut child = Command::new(env!("CARGO_BIN_EXE_ctk-serve"))
            .args(["--port", "0"])
            .args(flag)
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .expect("spawn ctk-serve");
        // A daemon that did start would run until signalled: bound the wait.
        let deadline = Instant::now() + Duration::from_secs(30);
        while child.try_wait().expect("poll ctk-serve").is_none() {
            if Instant::now() > deadline {
                let _ = child.kill();
                panic!("{flag:?}: ctk-serve started instead of refusing");
            }
            std::thread::sleep(Duration::from_millis(20));
        }
        let out = child.wait_with_output().expect("collect ctk-serve");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{flag:?}: {stderr}");
        assert!(stderr.contains("cannot start") && stderr.contains(knob), "{flag:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{flag:?}: {stderr}");
    }
}
