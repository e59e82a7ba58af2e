//! The root-budget ratchet: only a top-level entry point builds a root
//! `MemBudget`, and the one per-caller carrier stays one.
//!
//! Above each library file's first `#[cfg(test)]` it counts three texts:
//! `MemBudget::new(`, each a budget that is a root unless its caller has
//! entered a node; `thread_local!`, the per-caller state, which lives only
//! in `core/src/budget.rs`; and `.enter(`, of which library code has none,
//! since entering a node is the caller's choice.  The per-file counts must
//! equal [`COUNTS`]; a count that falls fails until its row is lowered, so
//! the table only ever moves down.

#[path = "support/sources.rs"]
mod sources;

use std::collections::BTreeMap;

use sources::{library_files, library_lines};

const PATTERNS: [&str; 3] = ["MemBudget::new(", "thread_local!", ".enter("];

/// `(file relative to crates/, [roots, thread_local!s, enters])`; a file
/// not listed has none of the three.
const COUNTS: &[(&str, [usize; 3])] = &[
    ("core/src/budget.rs", [0, 1, 0]),
    ("emrel/src/exec.rs", [2, 0, 0]),
    ("emserve/src/server.rs", [1, 0, 0]),
    ("emsort/src/merge.rs", [3, 0, 0]),
    ("emsort/src/pass.rs", [1, 0, 0]),
    ("emsort/src/runs.rs", [1, 0, 0]),
    ("emsort/src/transpose.rs", [1, 0, 0]),
    ("emtree/src/buffer_tree.rs", [1, 0, 0]),
    ("emtree/src/epq.rs", [1, 0, 0]),
];

fn counts(source: &str) -> [usize; 3] {
    PATTERNS.map(|p| library_lines(source).map(|l| l.matches(p).count()).sum())
}

#[test]
fn root_budgets_carriers_and_enters_only_fall() {
    let table: BTreeMap<String, [usize; 3]> =
        COUNTS.iter().map(|&(f, n)| (f.to_string(), n)).collect();
    let now: BTreeMap<String, [usize; 3]> = library_files()
        .into_iter()
        .map(|(key, source)| (key, counts(&source)))
        .filter(|(_, n)| n.iter().any(|&c| c > 0))
        .collect();
    let mut wrong = Vec::new();
    for file in table
        .keys()
        .chain(now.keys())
        .collect::<std::collections::BTreeSet<_>>()
    {
        let (was, is) = (
            table.get(file).copied().unwrap_or_default(),
            now.get(file).copied().unwrap_or_default(),
        );
        for ((pattern, was), is) in PATTERNS.iter().zip(was).zip(is) {
            if is > was {
                wrong.push(format!("{file}: {is} × {pattern}, the table allows {was}"));
            } else if is < was {
                wrong.push(format!(
                    "{file}: {pattern} down to {is} from {was}; lower its row in COUNTS"
                ));
            }
        }
    }
    assert!(wrong.is_empty(), "{}", wrong.join("\n"));
}

#[test]
fn the_table_keeps_one_carrier_and_no_enter() {
    let column = |i: usize| COUNTS.iter().map(|(_, n)| n[i]).sum::<usize>();
    assert_eq!(column(0), 11, "root budget sites");
    assert_eq!(column(1), 1, "one per-caller carrier");
    assert_eq!(column(2), 0, "library code enters no node");
}

#[test]
fn the_rule_counts_what_it_says() {
    let source = "\
fn f() { let b = MemBudget::new(8); let c = em_core::MemBudget::new(9); }
thread_local! { static X: u8 = 0; }
fn g(b: &Arc<MemBudget>) { let _in = b.enter(); }
#[cfg(test)]
mod tests { fn h() { MemBudget::new(1).enter(); } }
";
    assert_eq!(counts(source), [2, 1, 1]);
}
