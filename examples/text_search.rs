//! Full-text indexing: external suffix array over a synthetic corpus.
//!
//! The survey's text-indexing application: build a suffix array for a text
//! larger than the configured memory by prefix doubling (a handful of
//! external sorts), then answer substring searches with a few block reads
//! each.
//!
//! ```text
//! cargo run --release -p bench --example text_search
//! ```

use em_core::hash::Draws;
use em_core::{bounds, EmConfig, ExtVec};
use emsort::SortConfig;
use emtext::{find_occurrences, suffix_array};

fn main() {
    let cfg = EmConfig::new(4096, 16);
    let device = cfg.ram_disk();
    let m = 16_384usize;

    // A synthetic English-ish corpus: random sentences over a word list.
    let words = [
        "external",
        "memory",
        "algorithm",
        "block",
        "disk",
        "sort",
        "merge",
        "tree",
        "buffer",
        "scan",
        "query",
        "index",
        "suffix",
        "array",
        "model",
    ];
    let mut rng = Draws::new(2718);
    let mut corpus = String::new();
    while corpus.len() < 500_000 {
        corpus.push_str(words[rng.below(words.len() as u64) as usize]);
        corpus.push(if rng.unit() < 0.12 { '.' } else { ' ' });
    }
    let bytes = corpus.as_bytes();
    let text = ExtVec::from_slice(device.clone(), bytes).unwrap();
    println!(
        "corpus: {} bytes ({}× the {}-record memory budget)",
        text.len(),
        text.len() as usize / m,
        m
    );

    // Build the suffix array.
    let t0 = std::time::Instant::now();
    let before = device.stats().snapshot();
    let sa = suffix_array(&text, &SortConfig::new(m)).unwrap();
    let d = device.stats().snapshot().since(&before);
    println!(
        "suffix array  : {} I/Os in {:.2?}   (Θ Sort(N)·log N ≈ {:.0})",
        d.total(),
        t0.elapsed(),
        bounds::sort(text.len(), m, 4096 / 16) * (text.len() as f64).log2(),
    );

    // Queries.
    for pattern in ["external memory", "suffix array", "sort", "zebra"] {
        let before = device.stats().snapshot();
        let hits = find_occurrences(&text, &sa, pattern.as_bytes()).unwrap();
        let d = device.stats().snapshot().since(&before);
        println!(
            "search {pattern:<18} : {:>5} occurrences, {:>3} I/Os",
            hits.len(),
            d.total()
        );
    }
}
