//! The panic ratchet: library code may only lose panic sites, never gain
//! them.
//!
//! A *panic line* is a line of a library crate's `src/` above the file's
//! first `#[cfg(test)]` that contains `panic!`, `.unwrap()`, `.expect(`,
//! `assert!`, `assert_eq!`, `assert_ne!` or `unreachable!` and does not
//! contain `debug_assert`.  Doc examples count: they are text, and the rule
//! is a text rule.  `bench` and `testkit` are not library crates.  The
//! per-file counts must equal [`COUNTS`]: a file whose count rises, or a new
//! file with any, fails; a file whose count falls fails until its entry is
//! lowered, so the table only ever moves down.  A library crate with no
//! row carries [`ZERO_PANIC_LINTS`] in its `lib.rs`, so clippy keeps it at
//! zero.

#[path = "support/sources.rs"]
mod sources;

use std::collections::BTreeMap;

use sources::{crates_dir, library_crates, library_files, library_lines};

/// Panic lines per library file, relative to `crates/`; a file not listed
/// has none.
const COUNTS: &[(&str, usize)] = &[
    ("core/src/budget.rs", 1),
    ("core/src/config.rs", 3),
    ("core/src/ext_vec.rs", 2),
    ("core/src/lib.rs", 2),
    ("core/src/record.rs", 1),
    ("emhash/src/lib.rs", 2),
    ("emhash/src/table.rs", 2),
    ("emsort/src/merge.rs", 3),
    ("emtree/src/btree.rs", 4),
    ("emtree/src/buffer_tree.rs", 1),
    ("emtree/src/epq.rs", 2),
    ("pdm/src/array.rs", 3),
    ("pdm/src/fault.rs", 5),
    ("pdm/src/ram_disk.rs", 1),
    ("pdm/src/sched.rs", 2),
    ("pdm/src/stats.rs", 4),
];

/// The crate attribute that keeps a library at zero panic lines: clippy's
/// lint job rejects `unwrap`, `expect` and `panic!` outside test code.
const ZERO_PANIC_LINTS: &str =
    "#![cfg_attr(not(test),deny(clippy::unwrap_used,clippy::expect_used,clippy::panic))]";

const PATTERNS: &[&str] = &[
    "panic!",
    ".unwrap()",
    ".expect(",
    "assert!",
    "assert_eq!",
    "assert_ne!",
    "unreachable!",
];

fn panic_lines(source: &str) -> usize {
    library_lines(source)
        .filter(|line| !line.contains("debug_assert"))
        .filter(|line| PATTERNS.iter().any(|p| line.contains(p)))
        .count()
}

/// Panic lines of every library file that has any, keyed like [`COUNTS`].
fn measured() -> BTreeMap<String, usize> {
    library_files()
        .into_iter()
        .filter_map(|(key, source)| {
            let n = panic_lines(&source);
            (n > 0).then_some((key, n))
        })
        .collect()
}

#[test]
fn panic_lines_per_library_file_only_fall() {
    let table: BTreeMap<String, usize> = COUNTS.iter().map(|&(f, n)| (f.to_string(), n)).collect();
    let now = measured();
    let mut wrong = Vec::new();
    for file in table
        .keys()
        .chain(now.keys())
        .collect::<std::collections::BTreeSet<_>>()
    {
        let (was, is) = (
            table.get(file).copied().unwrap_or(0),
            now.get(file).copied().unwrap_or(0),
        );
        if is > was {
            wrong.push(format!("{file}: {is} panic lines, the table allows {was}"));
        } else if is < was {
            wrong.push(format!(
                "{file}: down to {is} from {was}; lower its entry in COUNTS"
            ));
        }
    }
    assert!(
        wrong.is_empty(),
        "{} panic lines in library code:\n{}",
        now.values().sum::<usize>(),
        wrong.join("\n")
    );
}

#[test]
fn the_rule_counts_what_it_says() {
    let source = "\
/// assert_eq!(doc_example(), 1);
fn f(x: Option<u8>) -> u8 {
    debug_assert!(x.is_some());
    debug_assert_eq!(x.unwrap(), 1);
    let y = x.expect(\"present\");
    if y == 0 { unreachable!() }
    y
}
#[cfg(test)]
mod tests { fn g() { panic!(); } }
";
    assert_eq!(panic_lines(source), 3);
}

#[test]
fn every_crate_at_zero_denies_the_panic_lints() {
    let mut missing = Vec::new();
    for name in library_crates() {
        let prefix = format!("{name}/");
        if COUNTS.iter().any(|(file, _)| file.starts_with(&prefix)) {
            continue;
        }
        let lib = crates_dir().join(&name).join("src/lib.rs");
        let source = std::fs::read_to_string(&lib).expect("readable lib.rs");
        let compact: String = source.chars().filter(|c| !c.is_whitespace()).collect();
        if !compact.contains(ZERO_PANIC_LINTS) {
            missing.push(name);
        }
    }
    assert!(
        missing.is_empty(),
        "crates with no panic lines must carry {ZERO_PANIC_LINTS} in lib.rs: {missing:?}"
    );
}
