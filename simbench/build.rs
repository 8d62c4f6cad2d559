//! Records the compiler version and source revision the benchmark was built
//! from, for the host fingerprint printed with every result.

use std::process::Command;

fn first_line(cmd: &str, args: &[&str]) -> String {
    Command::new(cmd)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

fn main() {
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".to_string());
    println!(
        "cargo:rustc-env=SIMBENCH_RUSTC={}",
        first_line(&rustc, &["-V"])
    );
    // Outside a git checkout (a source export) the revision is unknown.
    println!(
        "cargo:rustc-env=SIMBENCH_GIT_REV={}",
        first_line("git", &["rev-parse", "--short=12", "HEAD"])
    );
    println!("cargo:rerun-if-changed=build.rs");
    println!("cargo:rerun-if-changed=../.git/HEAD");
}
