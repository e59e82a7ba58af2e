//! The library sources the text ratchets read: every `.rs` file under a
//! library crate's `src/`, cut at its first `#[cfg(test)]`.

use std::path::{Path, PathBuf};

/// Crates under `crates/` that are not libraries the ratchets cover.
const SKIPPED: &[&str] = &["bench", "testkit"];

/// Every `.rs` file under `dir`, recursively.
fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in std::fs::read_dir(dir).expect("readable source directory") {
        let path = entry.expect("readable directory entry").path();
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

pub fn crates_dir() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the bench crate sits in crates/")
}

/// The names of the library crates the ratchets cover.
pub fn library_crates() -> Vec<String> {
    let mut names = Vec::new();
    for entry in std::fs::read_dir(crates_dir()).expect("readable crates/") {
        let dir = entry.expect("readable crates/ entry").path();
        let name = dir.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if dir.join("src").is_dir() && !SKIPPED.contains(&name) {
            names.push(name.to_string());
        }
    }
    names
}

/// The lines of `source` above its first `#[cfg(test)]`.
pub fn library_lines(source: &str) -> impl Iterator<Item = &str> {
    source
        .lines()
        .take_while(|line| !line.contains("#[cfg(test)]"))
}

/// `(path relative to crates/, whole source)` of every library file.
pub fn library_files() -> Vec<(String, String)> {
    let crates = crates_dir();
    let mut files = Vec::new();
    for name in library_crates() {
        rust_files(&crates.join(name).join("src"), &mut files);
    }
    files
        .into_iter()
        .map(|path| {
            let source = std::fs::read_to_string(&path).expect("readable source file");
            let key = path.strip_prefix(crates).expect("under crates/");
            (key.to_string_lossy().replace('\\', "/"), source)
        })
        .collect()
}
