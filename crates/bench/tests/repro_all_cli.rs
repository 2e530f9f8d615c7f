//! `repro_all` refuses what it does not recognize instead of running
//! something else: a mistyped gate name must fail, not pass.

use std::process::Command;

fn repro_all(args: &[&str]) -> (bool, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_repro_all"))
        .args(args)
        .env(
            "BGP_RESULTS_DIR",
            std::env::temp_dir().join("bgp-repro-all-cli"),
        )
        .output()
        .expect("spawn repro_all");
    (
        out.status.success(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn unknown_figure_name_is_rejected_with_the_valid_names() {
    let (ok, stderr) = repro_all(&["fig_ext_trace_overhaed", "--quick", "--gate"]);
    assert!(!ok, "a mistyped figure name must fail");
    assert!(
        stderr.contains("unknown figure fig_ext_trace_overhaed"),
        "{stderr}"
    );
    assert!(
        stderr.contains("fig_ext_trace_overhead"),
        "valid names listed: {stderr}"
    );
}

#[test]
fn unknown_flag_is_rejected_with_the_valid_names() {
    let (ok, stderr) = repro_all(&["fig03_modes", "--qiuck"]);
    assert!(!ok, "a mistyped flag must fail");
    assert!(stderr.contains("unexpected argument --qiuck"), "{stderr}");
    assert!(
        stderr.contains("fig03_modes"),
        "valid names listed: {stderr}"
    );
}

#[test]
fn conflicting_scales_are_rejected() {
    let (ok, stderr) = repro_all(&["fig03_modes", "--quick", "--paper"]);
    assert!(!ok);
    assert!(stderr.contains("only one of --quick / --paper"), "{stderr}");
}

#[test]
fn a_named_figure_runs_alone() {
    let dir = std::env::temp_dir().join(format!("bgp-repro-all-one-{}", std::process::id()));
    let out = Command::new(env!("CARGO_BIN_EXE_repro_all"))
        .args(["fig03_modes"])
        .env("BGP_RESULTS_DIR", &dir)
        .output()
        .expect("spawn repro_all");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let names: Vec<_> = std::fs::read_dir(&dir)
        .expect("results dir")
        .map(|e| e.expect("entry").file_name().into_string().expect("utf-8"))
        .collect();
    assert_eq!(names, ["fig03_modes.csv"]);
    let _ = std::fs::remove_dir_all(&dir);
}
