//! The paper-figure binaries refuse a mistyped `--scale`, a flag without
//! its value or an unknown flag with exit 2 before measuring anything,
//! instead of running the laptop scale in its place or panicking.

use std::process::Command;

const BINARIES: [(&str, &str); 6] = [
    ("fig1", env!("CARGO_BIN_EXE_fig1")),
    ("optimality", env!("CARGO_BIN_EXE_optimality")),
    ("ablation_zonemax", env!("CARGO_BIN_EXE_ablation_zonemax")),
    ("sweep_k", env!("CARGO_BIN_EXE_sweep_k")),
    ("sweep_lambda", env!("CARGO_BIN_EXE_sweep_lambda")),
    ("sweep_doclen", env!("CARGO_BIN_EXE_sweep_doclen")),
];

#[test]
fn a_bad_scale_or_an_unknown_flag_exits_2_naming_it() {
    for (name, path) in BINARIES {
        for (args, error) in [
            (&["--scale", "smok"][..], "bad value \"smok\" for --scale"),
            (&["--scale", "smoke", "--bogus"], "unknown flag \"--bogus\""),
            (&["--scale"], "--scale needs a value"),
        ] {
            let out = Command::new(path).args(args).output().expect("the binary starts");
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert_eq!(out.status.code(), Some(2), "{name} {args:?}: {stderr}");
            assert!(stderr.contains(&format!("{name}: {error}")), "{name} {args:?}: {stderr}");
            assert!(out.stdout.is_empty(), "{name} {args:?} measured something");
        }
    }
    let out = Command::new(env!("CARGO_BIN_EXE_fig1"))
        .args(["--scale", "smoke", "--workload", "both-ways"])
        .output()
        .expect("fig1 starts");
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("fig1: bad value \"both-ways\" for --workload"), "{stderr}");
}
