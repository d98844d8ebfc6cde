//! The experiments CLI refuses what it cannot run. An unknown experiment
//! name, a subcommand placed after a global flag (where it would be read as
//! an experiment name), a malformed flag value and a line selected twice are
//! usage errors: exit status 2, the usage text on stderr, nothing on stdout.

use std::process::Command;

#[test]
fn unknown_names_and_malformed_flags_are_usage_errors() {
    let cases: [&[&str]; 6] = [
        &["tabel1"],
        &["--json", "fig99"],
        &["--threads", "2", "simulate", "line2/ded"],
        &["--threads", "x", "table1"],
        &["simulate", "line1/ded", "--horizon", "x"],
        &["--line", "2,2", "table1"],
    ];
    for args in cases {
        let output = Command::new(env!("CARGO_BIN_EXE_wt_experiments"))
            .args(args)
            .output()
            .expect("the CLI starts");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert_eq!(output.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(
            stderr.contains("usage: wt-experiments"),
            "{args:?}: {stderr}"
        );
        assert!(output.stdout.is_empty(), "{args:?} printed to stdout");
    }
}
