//! `smtxd` must reject unknown flags loudly — exit code 2 plus a usage
//! string — before it binds a port. That includes the scheduling flags the
//! figure binaries also reject: checkpoint reuse and idle-cycle skipping are
//! always on, and only library tests turn them off.

use std::process::Command;

#[test]
fn smtxd_rejects_unknown_and_removed_flags_with_exit_2_and_usage() {
    let bin = env!("CARGO_BIN_EXE_smtxd");
    for args in [
        &["--checkpoint", "off"][..],
        &["--checkpoint", "on"][..],
        &["--idle-skip", "off"][..],
        &["--idle-skip", "on"][..],
        &["--bogus"][..],
    ] {
        let out = Command::new(bin)
            .args(args)
            .output()
            .unwrap_or_else(|e| panic!("cannot run {bin}: {e}"));
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(
            out.status.code(),
            Some(2),
            "{args:?} must exit 2, stderr: {stderr}"
        );
        assert!(
            stderr.contains(&format!("error: unknown argument `{}`", args[0])),
            "{args:?} must be named as unknown, got: {stderr}"
        );
        let usage = stderr.lines().find(|l| l.starts_with("usage: smtxd"));
        let usage = usage.unwrap_or_else(|| panic!("{args:?} must print usage, got: {stderr}"));
        assert!(
            !usage.contains("--checkpoint") && !usage.contains("--idle-skip"),
            "usage still offers a removed flag: {usage}"
        );
        assert!(
            out.stdout.is_empty(),
            "{args:?} started the daemon: {:?}",
            out.stdout
        );
    }
}
