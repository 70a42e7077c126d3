//! `aerothermod` start-up flags: a pool size above `MAX_WORKERS` is a
//! startup failure (exit 3 with the reason), refused before the daemon
//! binds its socket or starts a thread.

use std::process::Command;

use aerothermo_service::MAX_WORKERS;

#[test]
fn pool_flags_above_the_cap_exit_3_before_binding() {
    let root = std::env::temp_dir().join(format!("aerothermod-flags-{}", std::process::id()));
    std::fs::remove_dir_all(&root).ok();
    std::fs::create_dir_all(&root).unwrap();
    let socket = root.join("d.sock");
    let over = MAX_WORKERS + 1;
    for (flag, name) in [
        ("--accept-threads", "'accept_threads'"),
        ("--workers", "'workers'"),
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_aerothermod"))
            .arg(format!("--socket={}", socket.display()))
            .arg(format!("--data-dir={}", root.join("data").display()))
            .arg(format!("{flag}={over}"))
            .output()
            .expect("aerothermod runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(3), "{flag}: {stderr}");
        assert!(
            stderr.contains(name) && stderr.contains(&MAX_WORKERS.to_string()),
            "{flag}: {stderr}"
        );
        assert!(!socket.exists(), "{flag}: the socket must not be bound");
        assert!(!root.join("data").exists(), "{flag}: no data dir");
    }
    std::fs::remove_dir_all(&root).ok();
}
