//! `repro` rejects bad arguments up front: exit 2 with an `error:` line
//! before any figure runs, never a panic after one has.

use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// Run `repro` with `args`; fail if it is still running after 2 s.
fn repro(args: &[&str]) -> (i32, String) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn repro");
    let start = Instant::now();
    let status = loop {
        if let Some(status) = child.try_wait().expect("wait for repro") {
            break status;
        }
        if start.elapsed() > Duration::from_secs(2) {
            child.kill().ok();
            child.wait().ok();
            panic!("repro {args:?} still running after 2 s");
        }
        std::thread::sleep(Duration::from_millis(10));
    };
    let stderr = std::io::read_to_string(child.stderr.take().unwrap()).unwrap();
    (status.code().unwrap_or(-1), stderr)
}

fn assert_rejected(args: &[&str], needle: &str) {
    let (code, stderr) = repro(args);
    assert_eq!(code, 2, "repro {args:?}: {stderr}");
    assert!(stderr.contains("error:"), "repro {args:?}: {stderr}");
    assert!(stderr.contains(needle), "repro {args:?}: {stderr}");
    assert!(!stderr.contains("panicked"), "repro {args:?}: {stderr}");
    assert!(
        !stderr.contains("running"),
        "repro {args:?} ran work: {stderr}"
    );
}

#[test]
fn bad_csv_path_fails_before_any_figure() {
    assert_rejected(
        &["--fig", "9", "--csv", "/nonexistent/dir/x.csv"],
        "/nonexistent/dir/x.csv",
    );
}

#[test]
fn unknown_figure_fails_before_the_valid_ones_run() {
    assert_rejected(&["--fig", "9", "--fig", "14"], "`14`");
}

#[test]
fn unknown_ablation_fails_before_any_figure() {
    assert_rejected(&["--fig", "9", "--ablation", "bogus"], "`bogus`");
}
