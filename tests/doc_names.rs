//! The documents name code that exists.
//!
//! Every backticked lowercase snake_case identifier of four or more words in
//! README.md, DESIGN.md, EXPERIMENTS.md and ROADMAP.md (a test, a function,
//! a metric) must appear as a word of some `.rs` file under `crates/`,
//! `tests/`, `benchmark/src` or `examples/`, so a rename that leaves a
//! document pointing at nothing fails here.  A brace group such as
//! `{join,group_by}_…` is expanded before the identifiers are read; fenced
//! code blocks are not prose and are skipped.
//!
//! The long documents also keep a size: each one's line count must equal
//! its row in [`SIZES`].  A document that grows past its row fails, and one
//! that shrinks fails until its row is lowered, so a row only moves up when
//! a review raises it.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

const DOCS: &[&str] = &["README.md", "DESIGN.md", "EXPERIMENTS.md", "ROADMAP.md"];

const CODE: &[&str] = &["crates", "tests", "benchmark/src", "examples"];

/// Lines per document.
const SIZES: &[(&str, usize)] = &[
    ("DESIGN.md", 1523),
    ("EXPERIMENTS.md", 785),
    ("README.md", 552),
];

fn repo() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// Maximal runs of identifier characters.
fn words(text: &str) -> impl Iterator<Item = &str> {
    text.split(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
        .filter(|w| !w.is_empty())
}

/// A lowercase snake_case identifier of at least four words.
fn is_long_snake(word: &str) -> bool {
    let parts: Vec<&str> = word.split('_').collect();
    parts.len() >= 4
        && word.starts_with(|c: char| c.is_ascii_lowercase())
        && parts.iter().all(|p| {
            !p.is_empty()
                && p.bytes()
                    .all(|b| b.is_ascii_lowercase() || b.is_ascii_digit())
        })
}

/// The inline code spans of a markdown text; fenced blocks are left out.
fn code_spans(text: &str) -> Vec<String> {
    let mut prose = String::new();
    let mut fenced = false;
    for line in text.lines() {
        if line.trim_start().starts_with("```") {
            fenced = !fenced;
        } else if !fenced {
            prose.push_str(line);
            prose.push('\n');
        }
    }
    prose
        .split('`')
        .skip(1)
        .step_by(2)
        .map(str::to_string)
        .collect()
}

/// Every reading of `span` with its brace groups `{a,b,…}` expanded.
fn expand(span: &str) -> Vec<String> {
    let group = span
        .find('{')
        .and_then(|open| Some((open, open + span[open..].find('}')?)));
    let Some((open, close)) = group else {
        return vec![span.to_string()];
    };
    let (head, tail) = (&span[..open], &span[close + 1..]);
    span[open + 1..close]
        .split(',')
        .flat_map(|alt| expand(&format!("{head}{alt}{tail}")))
        .collect()
}

/// Every word of every `.rs` file under `dir`, recursively.
fn code_words(dir: &Path, out: &mut BTreeSet<String>) {
    for entry in std::fs::read_dir(dir).expect("readable source directory") {
        let path = entry.expect("readable directory entry").path();
        if path.is_dir() {
            code_words(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            let source = std::fs::read_to_string(&path).expect("readable source file");
            out.extend(words(&source).map(str::to_string));
        }
    }
}

/// The long identifiers of `doc` that no code file names.
fn unresolved(doc: &str, code: &BTreeSet<String>) -> Vec<String> {
    let mut missing: BTreeSet<String> = BTreeSet::new();
    for span in code_spans(doc) {
        for reading in expand(&span) {
            let names = words(&reading).filter(|w| is_long_snake(w) && !code.contains(*w));
            missing.extend(names.map(str::to_string));
        }
    }
    missing.into_iter().collect()
}

#[test]
fn every_long_identifier_in_the_docs_names_code() {
    let mut code = BTreeSet::new();
    for dir in CODE {
        code_words(&repo().join(dir), &mut code);
    }
    let mut wrong = Vec::new();
    for doc in DOCS {
        let text = std::fs::read_to_string(repo().join(doc)).expect("readable document");
        for name in unresolved(&text, &code) {
            wrong.push(format!("{doc}: `{name}`"));
        }
    }
    assert!(
        wrong.is_empty(),
        "documents name code that does not exist:\n{}",
        wrong.join("\n")
    );
}

#[test]
fn document_sizes_only_fall() {
    let mut wrong = Vec::new();
    for &(doc, rows) in SIZES {
        let text = std::fs::read_to_string(repo().join(doc)).expect("readable document");
        let lines = text.lines().count();
        if lines > rows {
            wrong.push(format!("{doc}: {lines} lines, SIZES allows {rows}"));
        } else if lines < rows {
            wrong.push(format!(
                "{doc}: down to {lines} lines from {rows}; lower its row in SIZES"
            ));
        }
    }
    assert!(wrong.is_empty(), "{}", wrong.join("\n"));
}

#[test]
fn the_rule_reads_what_it_says() {
    let code: BTreeSet<String> = ["join_spills_its_build", "one_two_three_four"]
        .map(String::from)
        .into();
    let doc = "\
Prose naming an_unquoted_long_identifier is not checked, nor are three_word_names:
`a_three_word` `one_two_three_four` `Not_Snake_Case_Here` `tests/x.rs::gone_from_the_code`
`{join,group_by}_spills_its_build` `UPPER_CASE_IS_NOT_SNAKE`
```
fenced_blocks_are_code_not_prose
```
";
    assert_eq!(
        unresolved(doc, &code),
        ["gone_from_the_code", "group_by_spills_its_build"]
    );
    assert_eq!(expand("a{b,c}d{e,f}"), ["abde", "abdf", "acde", "acdf"]);
}
