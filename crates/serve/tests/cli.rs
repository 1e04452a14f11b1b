//! `drink-serve`'s argument handling, run as the built binary: an argument it
//! does not understand is a usage error (exit 2), never a default run.

use std::process::{Command, Output};

fn drink_serve(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_drink-serve"))
        .args(args)
        .output()
        .expect("spawn drink-serve")
}

#[test]
fn unknown_flag_missing_value_and_smoke_with_arguments_exit_2() {
    for (args, named) in [
        (&["--thread", "8"][..], "--thread"),
        (&["--engine"][..], "--engine"),
        (&["--engine", "pess", "--smoke"][..], "--smoke"),
    ] {
        let out = drink_serve(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains(named), "{args:?} should name {named}: {stderr}");
    }
}

#[test]
fn smoke_alone_exits_0() {
    let out = drink_serve(&["--smoke"]);
    assert!(
        out.status.success(),
        "{}{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("serve smoke OK"));
}
