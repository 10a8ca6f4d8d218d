//! Records the build settings that belong in a result's host
//! fingerprint: the `target-cpu` the code was lowered for and the rustc
//! that compiled it.

use std::process::Command;

fn main() {
    let flags = std::env::var("CARGO_ENCODED_RUSTFLAGS").unwrap_or_default();
    let target_cpu = flags
        .split('\x1f')
        .find_map(|f| f.strip_prefix("target-cpu="))
        .unwrap_or("default")
        .to_owned();
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".to_owned());
    let version = Command::new(rustc)
        .arg("-V")
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_owned())
        .unwrap_or_else(|| "unknown".to_owned());
    println!("cargo:rustc-env=GLITCHBENCH_TARGET_CPU={target_cpu}");
    println!("cargo:rustc-env=GLITCHBENCH_RUSTC={version}");
    println!("cargo:rerun-if-env-changed=CARGO_ENCODED_RUSTFLAGS");
    println!("cargo:rerun-if-changed=build.rs");
}
