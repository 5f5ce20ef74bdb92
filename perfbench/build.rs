//! Embeds the host tag's build-time facts: the compiler version, the
//! source commit (when built from a git checkout) and the build profile.

use std::path::Path;
use std::process::Command;

fn stdout_of(cmd: &mut Command) -> Option<String> {
    let out = cmd.output().ok()?;
    if !out.status.success() {
        return None;
    }
    let text = String::from_utf8(out.stdout).ok()?;
    let text = text.trim();
    (!text.is_empty()).then(|| text.to_string())
}

fn main() {
    let manifest_dir = std::env::var("CARGO_MANIFEST_DIR").expect("cargo sets CARGO_MANIFEST_DIR");
    let repo = Path::new(&manifest_dir).join("..");
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".to_string());
    let version = stdout_of(Command::new(rustc).arg("-V")).unwrap_or_else(|| "unknown".into());
    let commit = stdout_of(
        Command::new("git")
            .args(["rev-parse", "--short=12", "HEAD"])
            .current_dir(&repo),
    )
    .unwrap_or_else(|| "unknown".into());
    let profile = std::env::var("PROFILE").unwrap_or_else(|_| "unknown".into());
    println!("cargo:rustc-env=PERFBENCH_RUSTC={version}");
    println!("cargo:rustc-env=PERFBENCH_COMMIT={commit}");
    println!("cargo:rustc-env=PERFBENCH_PROFILE={profile}");
    println!("cargo:rerun-if-changed=build.rs");
    for git_path in [".git/HEAD", ".git/refs"] {
        let path = repo.join(git_path);
        if path.exists() {
            println!("cargo:rerun-if-changed={}", path.display());
        }
    }
}
