//! Malformed numeric flags: a figure binary and the sweep driver exit 2
//! naming the flag and the value, before any work, instead of falling back
//! to a default (`--halt-after=x` used to disarm the kill drill and
//! `--workers=abc` to mean one worker).

use std::process::Command;

#[test]
fn malformed_numeric_flags_exit_2_naming_flag_and_value() {
    let dir = std::env::temp_dir().join(format!("bench-cli-flags-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    for (exe, flag, value) in [
        (env!("CARGO_BIN_EXE_fig05_geometry"), "--halt-after", "x"),
        (env!("CARGO_BIN_EXE_sweep"), "--workers", "abc"),
    ] {
        let out = Command::new(exe)
            .current_dir(&dir)
            .arg(format!("{flag}={value}"))
            .output()
            .expect("binary runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{flag}={value}: {stderr}");
        assert!(
            stderr.contains(flag) && stderr.contains(&format!("'{value}'")),
            "{flag}={value}: {stderr}"
        );
        assert!(out.stdout.is_empty(), "{flag}={value}: ran before exiting");
    }
    let left: Vec<_> = std::fs::read_dir(&dir).unwrap().collect();
    assert!(left.is_empty(), "no output files: {left:?}");
    std::fs::remove_dir_all(&dir).ok();
}
