//! `bgpc-diff` and `bgpc-dump` refuse flags they cannot parse instead
//! of silently falling back to a default: a mistyped `--set` must not
//! compare set 0.

use std::process::Command;

fn run(exe: &str, args: &[&str]) -> (bool, String) {
    let out = Command::new(exe).args(args).output().expect("spawn tool");
    (out.status.success(), String::from_utf8_lossy(&out.stderr).into_owned())
}

fn diff(args: &[&str]) -> (bool, String) {
    run(env!("CARGO_BIN_EXE_bgpc-diff"), args)
}

fn dump(args: &[&str]) -> (bool, String) {
    run(env!("CARGO_BIN_EXE_bgpc-dump"), args)
}

#[test]
fn diff_rejects_a_bad_set_value() {
    let (ok, stderr) = diff(&["--set", "x", "a", "b"]);
    assert!(!ok, "a bad --set must fail");
    assert!(stderr.contains("--set: "), "{stderr}");
}

#[test]
fn diff_rejects_a_bad_threshold_value() {
    let (ok, stderr) = diff(&["a", "b", "--threshold", "x"]);
    assert!(!ok, "a bad --threshold must fail");
    assert!(stderr.contains("--threshold: "), "{stderr}");
}

#[test]
fn diff_rejects_an_unknown_flag_and_a_third_directory() {
    let (ok, stderr) = diff(&["a", "b", "--thresold", "1"]);
    assert!(!ok);
    assert!(stderr.contains("unexpected argument --thresold"), "{stderr}");
    let (ok, stderr) = diff(&["a", "b", "c"]);
    assert!(!ok);
    assert!(stderr.contains("unexpected argument c"), "{stderr}");
    let (ok, stderr) = diff(&["a"]);
    assert!(!ok);
    assert!(stderr.contains("missing <dir-a> <dir-b>"), "{stderr}");
}

#[test]
fn diff_with_valid_flags_gets_as_far_as_reading_the_dumps() {
    let missing = std::env::temp_dir().join(format!("bgpc-diff-missing-{}", std::process::id()));
    let missing = missing.to_str().expect("utf-8 temp dir");
    let (ok, stderr) = diff(&["--set", "3", "--threshold", "1.5", missing, missing]);
    assert!(!ok);
    assert!(stderr.starts_with(&format!("bgpc-diff: {missing}")), "{stderr}");
}

#[test]
fn dump_rejects_bad_values_and_unknown_flags() {
    let (ok, stderr) = dump(&["dir", "--set", "x"]);
    assert!(!ok, "a bad --set must fail");
    assert!(stderr.contains("--set: "), "{stderr}");
    let (ok, stderr) = dump(&["dir", "--top", "-1"]);
    assert!(!ok, "a bad --top must fail");
    assert!(stderr.contains("--top: "), "{stderr}");
    let (ok, stderr) = dump(&["--jsn", "dir"]);
    assert!(!ok, "an unknown flag must not become the input path");
    assert!(stderr.contains("unexpected argument --jsn"), "{stderr}");
}
