//! The public-surface ratchet: a library's public functions and types are
//! named by code, not only by tests.
//!
//! A *declaration* is a line of a library crate's `src/` above the file's
//! first `#[cfg(test)]` that, leading whitespace aside, starts with
//! `pub fn` — or, for the type rule, `pub struct`, `pub enum`, `pub trait`
//! or `pub type`.  Its name must be a word of the code outside test code
//! that can only reach it as public API: another library crate's `src/`
//! (above each file's first `#[cfg(test)]`, doc comments included),
//! `crates/bench/src`, `benchmark/src` or `examples/`.  `bench` and
//! `testkit` are not library crates.  A declaration that fails this is
//! deleted, narrowed to `pub(crate)` (or `#[cfg(test)]`, when only its own
//! unit tests name it), or listed in [`TEST_SURFACE`] (functions) or
//! [`TEST_TYPES`] (types) with the reason it stays public: an integration
//! test or another crate's tests drive it, or it is a survey algorithm, an
//! operator or a counter no in-repo client names yet.  The tables only
//! shrink: a row whose declaration is gone, or is now named outside its
//! crate, fails until the row is removed.
//!
//! The rule is a text rule, so a name that is also a word of unrelated code
//! (`new`, `len`, `get`) passes whatever calls it.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

/// Public functions that only tests name outside their crate, keyed by file
/// (relative to `crates/`) and name, each with the reason it stays public.
#[rustfmt::skip]
const TEST_SURFACE: &[(&str, &str, &str)] = &[
    ("core/src/budget.rs", "enter", "model_enforcement.rs roots a sort, plan or Server"),
    ("core/src/budget.rs", "high_water", "model_enforcement.rs reads each root's peak"),
    ("emgeom/src/dominance.rs", "dominance_count", "survey algorithm; emgeom's tests run it"),
    ("emgeom/src/dominance.rs", "dominance_count_naive", "dominance_count's baseline"),
    ("emgraph/src/euler.rs", "euler_tour", "survey algorithm; tree_depths calls it"),
    ("emgraph/src/gen.rs", "planted_components", "graph_pipeline.rs builds CC inputs"),
    ("emgraph/src/list_ranking.rs", "list_rank_weighted", "survey algorithm; list_rank calls it"),
    ("emgraph/src/mis.rs", "maximal_independent_set", "survey algorithm; emgraph's tests run it"),
    ("emrel/src/exec.rs", "with_order", "query_engine.rs declares a scan's order"),
    ("emrel/src/plan.rs", "predict", "the cost model; choose calls it"),
    ("emrel/src/plan.rs", "predict_with_sink", "query_engine.rs: predicted == measured"),
    ("emrel/src/plan.rs", "with_stripe", "query_engine.rs prices striped arrays"),
    ("emserve/src/shard.rs", "batch_len", "kv_structures_agree.rs flushes by size"),
    ("emserve/src/shard.rs", "cached_records", "serve_consistency.rs counts frames"),
    ("emserve/src/shard.rs", "tree_len", "kv_structures_agree.rs counts keys"),
    ("emserve/src/stats.rs", "cache_demotions", "serve_consistency.rs checks SLRU moves"),
    ("emserve/src/stats.rs", "cache_promotions", "serve_consistency.rs checks SLRU moves"),
    ("emsort/src/bmmc.rs", "bit_reversal", "survey permutation; emsort's tests bill it"),
    ("emsort/src/bmmc.rs", "bmmc_permute", "survey algorithm; emsort's tests bill it"),
    ("emsort/src/bmmc.rs", "perfect_shuffle", "survey permutation; emsort's tests run it"),
    ("emsort/src/distribution.rs", "distribution_sort_by", "sort_engine.rs checks it"),
    ("emsort/src/merge.rs", "runs_spilled", "model_enforcement.rs: one load spills none"),
    ("emsort/src/permute.rs", "invert_permutation", "survey algorithm; emsort's tests bill it"),
    ("emsort/src/select.rs", "select", "survey algorithm; emsort's tests run it"),
    ("emsort/src/select.rs", "select_by", "survey algorithm; median calls it"),
    ("emtree/src/btree.rs", "node_count", "emserve's tests count packed nodes"),
    ("emtree/src/buffer_tree.rs", "to_sorted_ext_vec", "sort_then_index.rs reads it in order"),
    ("pdm/src/array.rs", "is_striped", "query_engine.rs sizes blocks by placement"),
    ("pdm/src/array.rs", "new_ram_with", "overlapped_io.rs builds overlapped arrays"),
    ("pdm/src/error.rs", "is_transient", "emrel's tests: no retry of MemoryExceeded"),
    ("pdm/src/fault.rs", "with_crash", "fault injection: crash_recovery.rs"),
    ("pdm/src/fault.rs", "with_latency", "the slow device: query_overlap.rs"),
    ("pdm/src/fault.rs", "with_permanent_blocks", "fault injection: fault_injection.rs"),
    ("pdm/src/fault.rs", "with_torn_writes", "fault injection: fault_injection.rs"),
    ("pdm/src/fault.rs", "with_torn_writes_verified", "fault injection: em-core's tests"),
    ("pdm/src/fault.rs", "wrap", "fault injection: every fault suite"),
    ("pdm/src/stats.rs", "dropped_write_errors", "README's fault example prints it"),
    ("pdm/src/stats.rs", "reads_on", "overlapped_io.rs counts reads per disk"),
    ("pdm/src/stats.rs", "writes_on", "overlapped_io.rs counts writes per disk"),
];

/// Public types that only tests name outside their crate, keyed like
/// [`TEST_SURFACE`].
#[rustfmt::skip]
const TEST_TYPES: &[(&str, &str, &str)] = &[
    ("core/src/budget.rs", "Entered", "MemBudget::enter returns it"),
    ("emgraph/src/euler.rs", "EulerTour", "euler_tour returns it; callers never spell it"),
    ("emhash/src/partition.rs", "Partitioned", "partition_to_fit returns it"),
    ("emrel/src/exec.rs", "KeyId", "Order::Key's argument in the executor API"),
    ("emrel/src/exec.rs", "SortStreamExec", "operator; sort_scan builds it"),
    ("emrel/src/plan.rs", "Prediction", "predict returns it; callers never spell it"),
    ("emserve/src/stats.rs", "ServeStats", "Server::stats returns it"),
    ("emsort/src/bmmc.rs", "BmmcMatrix", "bmmc_permute's argument; bit_reversal returns it"),
    ("pdm/src/fault.rs", "CrashSwitch", "fault injection: crash_recovery.rs"),
    ("pdm/src/fault.rs", "FaultDisk", "fault injection: every fault suite"),
    ("pdm/src/pool.rs", "FrameGuard", "BufferPool::read returns it"),
    ("pdm/src/pool.rs", "PoolStats", "BufferPool::stats returns it"),
];

/// The declarations each rule reads: `pub <kind> <name>`.
const FN_KINDS: &[&str] = &["fn"];
const TYPE_KINDS: &[&str] = &["struct", "enum", "trait", "type"];

/// Crates under `crates/` that are not libraries the rule covers.
const SKIPPED: &[&str] = &["bench", "testkit"];

/// Code outside the library crates that uses them as a client would.
const CLIENTS: &[&str] = &["crates/bench/src", "benchmark/src", "examples"];

fn repo() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// The part of a source file the rule reads: everything above its first
/// `#[cfg(test)]`.
fn live(source: &str) -> impl Iterator<Item = &str> {
    source
        .lines()
        .take_while(|line| !line.contains("#[cfg(test)]"))
}

/// Maximal runs of identifier characters.
fn words(text: &str) -> impl Iterator<Item = &str> {
    text.split(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
        .filter(|w| !w.is_empty())
}

/// Names of the `pub <kind>`s `source` declares, for each of `kinds`.
fn declared<'a>(source: &'a str, kinds: &[&str]) -> Vec<&'a str> {
    live(source)
        .filter_map(|line| line.trim_start().strip_prefix("pub "))
        .filter_map(|rest| {
            kinds
                .iter()
                .find_map(|kind| rest.strip_prefix(kind)?.strip_prefix(' '))
        })
        .filter_map(|rest| words(rest).next())
        .collect()
}

/// Every word of the live part of `source`.
fn live_words(source: &str, out: &mut BTreeSet<String>) {
    for line in live(source) {
        out.extend(words(line).map(str::to_string));
    }
}

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

/// One library crate: its name and `(file, source)` pairs, file relative
/// to `crates/`.
struct Crate {
    name: String,
    files: Vec<(String, String)>,
}

fn library_crates() -> Vec<Crate> {
    let crates = repo().join("crates");
    let mut out = Vec::new();
    for entry in std::fs::read_dir(&crates).expect("readable crates/") {
        let dir = entry.expect("readable crates/ entry").path();
        let name = dir.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if !dir.join("src").is_dir() || SKIPPED.contains(&name) {
            continue;
        }
        let mut paths = Vec::new();
        rust_files(&dir.join("src"), &mut paths);
        let files = paths
            .into_iter()
            .map(|path| {
                let source = std::fs::read_to_string(&path).expect("readable source file");
                let key = path.strip_prefix(&crates).expect("under crates/");
                (key.to_string_lossy().replace('\\', "/"), source)
            })
            .collect();
        out.push(Crate {
            name: name.to_string(),
            files,
        });
    }
    out
}

/// `(file, name)` of every declaration of `kinds` no code outside its crate
/// names.
fn unnamed(
    libs: &[Crate],
    clients: &BTreeSet<String>,
    kinds: &[&str],
) -> BTreeSet<(String, String)> {
    let mut out = BTreeSet::new();
    for lib in libs {
        let mut outside = clients.clone();
        for other in libs.iter().filter(|other| other.name != lib.name) {
            for (_, source) in &other.files {
                live_words(source, &mut outside);
            }
        }
        for (file, source) in &lib.files {
            for name in declared(source, kinds) {
                if !outside.contains(name) {
                    out.insert((file.clone(), name.to_string()));
                }
            }
        }
    }
    out
}

fn client_words() -> BTreeSet<String> {
    let mut words = BTreeSet::new();
    for dir in CLIENTS {
        let mut paths = Vec::new();
        rust_files(&repo().join(dir), &mut paths);
        for path in paths {
            let source = std::fs::read_to_string(&path).expect("readable source file");
            live_words(&source, &mut words);
        }
    }
    words
}

/// Everything wrong with `table` as the ratchet of the declarations of
/// `kinds`: rows to remove, and declarations to delete, narrow or list.
fn ratchet(table: &[(&str, &str, &str)], kinds: &[&str]) -> Vec<String> {
    let libs = library_crates();
    let now = unnamed(&libs, &client_words(), kinds);
    let declared: BTreeSet<(String, String)> = libs
        .iter()
        .flat_map(|lib| &lib.files)
        .flat_map(|(file, source)| {
            declared(source, kinds)
                .into_iter()
                .map(|name| (file.clone(), name.to_string()))
        })
        .collect();
    let mut wrong = Vec::new();
    let mut listed = BTreeSet::new();
    for &(file, name, reason) in table {
        let key = (file.to_string(), name.to_string());
        if reason.trim().is_empty() {
            wrong.push(format!("{file}: `{name}` is listed without a reason"));
        }
        if !listed.insert(key.clone()) {
            wrong.push(format!("{file}: `{name}` is listed twice"));
        } else if !declared.contains(&key) {
            wrong.push(format!("{file}: `{name}` is gone; remove its row"));
        } else if !now.contains(&key) {
            wrong.push(format!(
                "{file}: `{name}` is named outside its crate now; remove its row"
            ));
        }
    }
    for (file, name) in now.difference(&listed) {
        wrong.push(format!(
            "{file}: `pub {} {name}` is named by no code outside its crate; delete it, \
             make it pub(crate) or #[cfg(test)], or list it with a reason",
            kinds.join("/")
        ));
    }
    if !wrong.is_empty() {
        wrong.insert(
            0,
            format!(
                "{} declarations only tests name ({} listed):",
                now.len(),
                table.len()
            ),
        );
    }
    wrong
}

#[test]
fn every_public_function_is_named_by_code_outside_its_crate() {
    let wrong = ratchet(TEST_SURFACE, FN_KINDS);
    assert!(wrong.is_empty(), "TEST_SURFACE:\n{}", wrong.join("\n"));
}

#[test]
fn every_public_type_is_named_by_code_outside_its_crate() {
    let wrong = ratchet(TEST_TYPES, TYPE_KINDS);
    assert!(wrong.is_empty(), "TEST_TYPES:\n{}", wrong.join("\n"));
}

#[test]
fn the_rule_counts_what_it_says() {
    let lib = "\
/// ```
/// pub fn in_a_doc_comment() {}
/// ```
pub fn called() {}
    pub fn indented_method(&self) {}
pub(crate) fn crate_private() { only_a_prefix_is_used() }
pub fn only_a_prefix_is_used() {}
pub struct Named;
pub(crate) struct CratePrivate;
    pub enum Nested { A }
pub type Alias = Named;
pub trait Unnamed {}
pub structural_fn() {}
#[cfg(test)]
mod tests {
    pub fn in_the_tests() {}
}
";
    assert_eq!(
        declared(lib, FN_KINDS),
        ["called", "indented_method", "only_a_prefix_is_used"]
    );
    assert_eq!(
        declared(lib, TYPE_KINDS),
        ["Named", "Nested", "Alias", "Unnamed"]
    );
    let other = "pub fn other() { thing.indented_method() }\n";
    let client = "\
fn main() {
    called();
    only_a_prefix_is_used_twice();
    let _: Alias = Named;
    Nested::A;
}
#[cfg(test)]
mod tests {
    fn t() { super::in_the_tests(); only_a_prefix_is_used(); }
}
";
    let libs = [("lib", lib), ("other", other)].map(|(name, source)| Crate {
        name: name.to_string(),
        files: vec![(format!("{name}/src/lib.rs"), source.to_string())],
    });
    let mut clients = BTreeSet::new();
    live_words(client, &mut clients);
    let names = |kinds| -> Vec<String> {
        unnamed(&libs, &clients, kinds)
            .into_iter()
            .map(|(_, name)| name)
            .collect()
    };
    assert_eq!(names(FN_KINDS), ["only_a_prefix_is_used", "other"]);
    assert_eq!(names(TYPE_KINDS), ["Unnamed"]);
}
