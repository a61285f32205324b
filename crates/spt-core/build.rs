//! Derives the build identity that every artifact-store key folds
//! (`spt_core::store`): an FNV-1a hash of the `src/` trees of every
//! workspace crate whose code computes, encodes or decodes a stored
//! artifact. Those are spt-core, its workspace dependencies (read from
//! its manifest) and spt-serve, whose simulation path produces the
//! `SimResult` memos. A build from changed sources therefore starts the
//! store cold instead of serving the previous build's answers.

use std::fs;
use std::path::{Path, PathBuf};

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x100_0000_01b3;

fn fold(h: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *h ^= b as u64;
        *h = h.wrapping_mul(FNV_PRIME);
    }
}

/// Every file under `dir`, recursively.
fn files(dir: &Path, out: &mut Vec<PathBuf>) {
    let entries = fs::read_dir(dir).unwrap_or_else(|e| panic!("reading {}: {e}", dir.display()));
    for entry in entries {
        let path = entry
            .unwrap_or_else(|e| panic!("reading {}: {e}", dir.display()))
            .path();
        if path.is_dir() {
            files(&path, out);
        } else {
            out.push(path);
        }
    }
}

fn main() {
    let here = PathBuf::from(std::env::var("CARGO_MANIFEST_DIR").expect("set by cargo"));
    let crates_dir = here
        .parent()
        .expect("spt-core sits in the crates directory");
    let manifest = fs::read_to_string(here.join("Cargo.toml")).expect("spt-core's manifest");
    let deps = manifest
        .split("\n[dependencies]\n")
        .nth(1)
        .and_then(|rest| rest.split("\n[").next())
        .expect("spt-core's manifest has a [dependencies] table");
    let mut crates: Vec<&str> = deps
        .lines()
        .filter_map(|line| line.split(['.', ' ', '=']).next())
        .filter(|name| name.starts_with("spt-"))
        .chain(["spt-core", "spt-serve"])
        .collect();
    crates.sort_unstable();
    crates.dedup();

    let mut h = FNV_OFFSET;
    for name in crates {
        let src = crates_dir.join(name).join("src");
        println!("cargo:rerun-if-changed={}", src.display());
        let mut paths = Vec::new();
        files(&src, &mut paths);
        paths.sort();
        for path in paths {
            let bytes =
                fs::read(&path).unwrap_or_else(|e| panic!("reading {}: {e}", path.display()));
            let rel = path.strip_prefix(crates_dir).unwrap_or(&path);
            fold(&mut h, rel.to_string_lossy().as_bytes());
            fold(&mut h, &(bytes.len() as u64).to_le_bytes());
            fold(&mut h, &bytes);
        }
    }
    println!("cargo:rerun-if-changed=Cargo.toml");
    let out = PathBuf::from(std::env::var("OUT_DIR").expect("set by cargo")).join("build_id.rs");
    fs::write(out, format!("{h:#018x}\n")).expect("writing the build identity");
}
