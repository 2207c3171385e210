//! The `advsgm` binary treats a closed stdout as the end of its output:
//! a reader that goes away early (`advsgm ... | head`) must not turn a
//! working command into a panic, and a closed stderr must not turn a
//! failing one into a panic either.

use std::process::{Command, Output, Stdio};

/// Runs `advsgm args` with stdout on a pipe whose reader is already
/// gone, so its first write fails with `BrokenPipe`.
fn run_with_closed_stdout(args: &[&str]) -> Output {
    let (reader, writer) = std::io::pipe().expect("pipe");
    drop(reader);
    Command::new(env!("CARGO_BIN_EXE_advsgm"))
        .args(args)
        .stdout(writer)
        .stderr(Stdio::piped())
        .output()
        .expect("spawn advsgm")
}

#[test]
fn a_closed_stdout_ends_the_output_quietly() {
    for args in [&["--help"][..], &["info", "--host"]] {
        let out = run_with_closed_stdout(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
        assert_eq!(out.status.code(), Some(0), "{args:?}: {stderr}");
    }
}

#[test]
fn a_closed_stderr_keeps_the_error_status() {
    let (reader, writer) = std::io::pipe().expect("pipe");
    drop(reader);
    let status = Command::new(env!("CARGO_BIN_EXE_advsgm"))
        .arg("no-such-subcommand")
        .stdout(Stdio::null())
        .stderr(writer)
        .status()
        .expect("spawn advsgm");
    assert_eq!(status.code(), Some(1));
}

#[test]
fn other_output_errors_fail_the_command() {
    // `/dev/full` accepts the open and fails every write with ENOSPC.
    let Ok(full) = std::fs::OpenOptions::new().write(true).open("/dev/full") else {
        return;
    };
    let out = Command::new(env!("CARGO_BIN_EXE_advsgm"))
        .arg("--help")
        .stdout(full)
        .stderr(Stdio::piped())
        .output()
        .expect("spawn advsgm");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains("writing output"), "{stderr}");
}
