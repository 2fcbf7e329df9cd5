//! Exit-code contract of the `rpb` binary's argument handling.
//!
//! CI scripts branch on these codes (0 success, 1 runtime failure, 2
//! usage error), so the distinction is load-bearing: an unknown
//! subcommand must *not* print the help text and exit 0 — that reads as
//! "the step ran" to every `set -e` shell in the pipeline.

use std::process::{Command, Output};

fn rpb(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_rpb"))
        .args(args)
        .output()
        .expect("spawn rpb")
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

#[test]
fn unknown_subcommand_is_a_usage_error() {
    let out = rpb(&["tabel1"]);
    assert_eq!(out.status.code(), Some(2), "stderr: {}", stderr(&out));
    assert!(
        stderr(&out).contains("unknown command \"tabel1\""),
        "stderr must name the offending command: {}",
        stderr(&out)
    );
}

#[test]
fn help_paths_exit_zero() {
    for args in [&[][..], &["help"][..], &["--help"][..], &["-h"][..]] {
        let out = rpb(args);
        assert_eq!(out.status.code(), Some(0), "args {args:?}");
        assert!(
            String::from_utf8_lossy(&out.stdout).contains("usage: rpb"),
            "args {args:?} must print the usage text"
        );
    }
}

#[test]
fn unknown_option_is_a_usage_error() {
    let out = rpb(&["table1", "--bogus"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).contains("unknown option"), "{}", stderr(&out));
}

#[test]
fn serve_and_load_flag_grammar_errors_exit_two() {
    // --artifact is a self-test flag; alone it is a usage error.
    let out = rpb(&["serve", "--artifact", "x.json"]);
    assert_eq!(out.status.code(), Some(2), "stderr: {}", stderr(&out));
    // The load generator cannot run without a target address.
    let out = rpb(&["load"]);
    assert_eq!(out.status.code(), Some(2), "stderr: {}", stderr(&out));
    assert!(stderr(&out).contains("--addr"), "{}", stderr(&out));
    // Both helps exit clean.
    for sub in ["serve", "load"] {
        let out = rpb(&[sub, "--help"]);
        assert_eq!(out.status.code(), Some(0), "{sub} --help");
    }
}

#[test]
fn gate_without_a_subcommand_is_a_usage_error() {
    let out = rpb(&["gate"]);
    assert_eq!(out.status.code(), Some(2), "stderr: {}", stderr(&out));
}

#[test]
fn report_on_empty_or_zero_record_files_exits_zero() {
    let dir = std::env::temp_dir().join(format!("rpb_cli_report_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("mkdir");

    // A 0-byte file is a valid "nothing ran yet" report, not a parse error.
    let empty = dir.join("empty.json");
    std::fs::write(&empty, "").expect("write");
    let out = rpb(&["report", empty.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(0), "stderr: {}", stderr(&out));
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    assert!(stdout.contains("no records"), "stdout: {stdout}");

    // So is a well-formed document whose records array is empty.
    let zero = dir.join("zero.json");
    std::fs::write(&zero, r#"{"schema":"rpb-bench-v2","records":[]}"#).expect("write");
    let out = rpb(&["report", zero.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(0), "stderr: {}", stderr(&out));
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    assert!(stdout.contains("no records"), "stdout: {stdout}");

    // Garbage still dies loudly — the empty-file carve-out is narrow.
    let bad = dir.join("bad.json");
    std::fs::write(&bad, "not json").expect("write");
    let out = rpb(&["report", bad.to_str().unwrap()]);
    assert_ne!(out.status.code(), Some(0), "stderr: {}", stderr(&out));

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn channel_flag_grammar_is_enforced() {
    // A comma list is only meaningful as a verify-matrix axis.
    let out = rpb(&["table1", "--channel", "mpsc,crossbeam"]);
    assert_eq!(out.status.code(), Some(2), "stderr: {}", stderr(&out));
    assert!(stderr(&out).contains("--channel"), "{}", stderr(&out));
    // An unknown channel name is rejected wherever it appears.
    let out = rpb(&["verify", "--streaming", "--channel", "bogus"]);
    assert_eq!(out.status.code(), Some(2), "stderr: {}", stderr(&out));
}

#[test]
fn a_closed_stdout_pipe_is_not_a_panic() {
    // `rpb table1 | head -0`: the read end is gone before, while or after
    // the table is written — whichever side wins, the command succeeded.
    use std::process::Stdio;
    let mut child = Command::new(env!("CARGO_BIN_EXE_rpb"))
        .arg("table1")
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn rpb");
    drop(child.stdout.take());
    let out = child.wait_with_output().expect("wait for rpb");
    assert_eq!(out.status.code(), Some(0), "stderr: {}", stderr(&out));
    assert!(!stderr(&out).contains("panicked"), "{}", stderr(&out));
}
