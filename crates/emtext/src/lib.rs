//! # `emtext` — external-memory text indexing
//!
//! The survey's flagship application outside databases is full-text
//! indexing: suffix arrays over texts far larger than memory.  This crate
//! builds them with nothing but the workspace's sorting machinery:
//!
//! * [`suffix_array`] — the prefix-doubling (Manber–Myers style) algorithm
//!   externalized: each of `⌈log₂ N⌉` rounds re-ranks all suffixes by their
//!   first `2^k` characters using two sorts and two scans, so the total is
//!
//!   ```text
//!   O(Sort(N) · log N)  I/Os
//!   ```
//!
//!   (the survey-era bound; later DC3-style constructions shave the log).
//!   Rounds stop early once all ranks are distinct, which for realistic
//!   text happens after `O(log (longest repeat))` rounds.
//!
//! * [`find_occurrences`] — substring search by binary search over the
//!   suffix array: `O(log₂ N · ⌈P/B⌉)` I/Os per query for a length-`P`
//!   pattern, reporting all match positions.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

use em_core::{ExtVec, ExtVecWriter};
use emsort::{merge_sort_by, merge_sort_streaming, SortConfig, SortingWriter};
use pdm::{PdmError, Result};

/// Rank sentinel for "past the end of the text".
const NONE: u64 = u64::MAX;

/// Build the suffix array of `text`: the permutation `sa` of `0..N` such
/// that the suffixes `text[sa[0]..] < text[sa[1]..] < …` in byte order.
/// `O(Sort(N) · log N)` I/Os.
pub fn suffix_array(text: &ExtVec<u8>, cfg: &SortConfig) -> Result<ExtVec<u64>> {
    let device = text.device().clone();
    let n = text.len();
    if n == 0 {
        return Ok(ExtVec::new(device));
    }

    // Initial ranks: the byte at each position (+1 so NONE stays distinct).
    // ranks: (position, rank), sorted by position.
    let mut ranks: ExtVec<(u64, u64)> = {
        let mut w = ExtVecWriter::new(device.clone());
        let mut r = text.reader();
        let mut i = 0u64;
        while let Some(c) = r.try_next()? {
            w.push((i, c as u64 + 1))?;
            i += 1;
        }
        w.finish()?
    };

    let mut h = 1u64;
    loop {
        // Build (pos, r_pos, r_pos+h) triples by zipping `ranks` with a
        // copy of itself shifted h positions left; both streams are in
        // position order, so this is a single parallel scan, and it feeds
        // the sort directly.
        //
        // Sort by the composite key (r1, r2); NONE (absent) must order
        // *before* any real rank because a shorter string is a prefix and
        // therefore smaller — map NONE to 0 (real ranks start at 1).
        let key = |t: &(u64, u64, u64)| (t.1, if t.2 == NONE { 0 } else { t.2 });
        let mut triples = SortingWriter::new(device.clone(), cfg, move |a, b| key(a) < key(b));
        {
            let mut cur = ranks.reader();
            let mut ahead = ranks.reader_at(h.min(n))?;
            while let Some((pos, r1)) = cur.try_next()? {
                // A suffix shorter than h has no second half.
                let r2 = ahead.try_next()?.map_or(NONE, |(_, r)| r);
                triples.push((pos, r1, r2))?;
            }
        }
        ranks.free()?;

        // Assign new ranks by scanning groups of equal keys as the sort's
        // final merge delivers them.
        let mut distinct = 0u64;
        let reranked: ExtVec<(u64, u64)> = triples.finish_streaming(|by_key| {
            let mut w = ExtVecWriter::new(device.clone());
            let mut last_key: Option<(u64, u64)> = None;
            while let Some(t) = by_key.try_next()? {
                let k = key(&t);
                if last_key != Some(k) {
                    distinct += 1;
                    last_key = Some(k);
                }
                w.push((t.0, distinct))?;
            }
            w.finish()
        })?;
        // Back to position order for the next round.
        ranks = merge_sort_by(&reranked, cfg, |a, b| a.0 < b.0)?;
        reranked.free()?;

        if distinct == n || h >= n {
            break;
        }
        h *= 2;
    }

    // SA = positions sorted by final rank; the ranks come off the final
    // merge as the positions are written.
    let sa = merge_sort_streaming(
        &ranks,
        cfg,
        |a, b| a.1 < b.1,
        |by_rank| {
            let mut w: ExtVecWriter<u64> = ExtVecWriter::new(device);
            while let Some((pos, _)) = by_rank.try_next()? {
                w.push(pos)?;
            }
            w.finish()
        },
    )?;
    ranks.free()?;
    Ok(sa)
}

/// Compare `pattern` against the suffix starting at `pos` (prefix order):
/// `Less`/`Greater` as for string comparison, `Equal` when the pattern is a
/// prefix of the suffix.  Costs `O(⌈P/B⌉)` I/Os.
fn cmp_pattern(text: &ExtVec<u8>, pos: u64, pattern: &[u8]) -> Result<std::cmp::Ordering> {
    use std::cmp::Ordering;
    let n = text.len();
    let take = pattern.len().min((n - pos) as usize);
    let mut chunk = Vec::new();
    text.read_range(pos, take, &mut chunk)?;
    for (a, b) in pattern.iter().zip(&chunk) {
        match a.cmp(b) {
            Ordering::Equal => continue,
            other => return Ok(other),
        }
    }
    // Pattern exhausted → prefix match; suffix exhausted first → pattern is
    // longer, i.e. greater.
    Ok(if take == pattern.len() {
        Ordering::Equal
    } else {
        Ordering::Greater
    })
}

/// All positions where `pattern` occurs in `text`, in increasing order,
/// found by binary search over the suffix array:
/// `O(log₂ N · ⌈P/B⌉ + Z/B)` I/Os.
///
/// # Errors
///
/// [`PdmError::InvalidRequest`] for an empty pattern, which matches
/// everywhere, before any transfer.
pub fn find_occurrences(text: &ExtVec<u8>, sa: &ExtVec<u64>, pattern: &[u8]) -> Result<Vec<u64>> {
    use std::cmp::Ordering;
    if pattern.is_empty() {
        return Err(PdmError::InvalidRequest(
            "an empty pattern matches everywhere".into(),
        ));
    }
    let n = sa.len();
    if n == 0 {
        return Ok(Vec::new());
    }
    // Lower bound: first suffix ≥ pattern.
    let mut lo = 0u64;
    let mut hi = n;
    while lo < hi {
        let mid = (lo + hi) / 2;
        let pos = sa.get(mid)?;
        if cmp_pattern(text, pos, pattern)? == Ordering::Greater {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    let start = lo;
    // Upper bound: first suffix with prefix > pattern.
    let mut hi2 = n;
    let mut lo2 = start;
    while lo2 < hi2 {
        let mid = (lo2 + hi2) / 2;
        let pos = sa.get(mid)?;
        if cmp_pattern(text, pos, pattern)? == Ordering::Less {
            hi2 = mid;
        } else {
            lo2 = mid + 1;
        }
    }
    let mut out = Vec::with_capacity((lo2 - start) as usize);
    sa.read_range(start, (lo2 - start) as usize, &mut out)?; // Z/B I/Os
    out.sort_unstable();
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use em_core::hash::Draws;
    use em_core::EmConfig;
    use pdm::SharedDevice;

    fn device() -> SharedDevice {
        EmConfig::new(256, 16).ram_disk()
    }

    fn reference_sa(text: &[u8]) -> Vec<u64> {
        let mut sa: Vec<u64> = (0..text.len() as u64).collect();
        sa.sort_by(|&a, &b| text[a as usize..].cmp(&text[b as usize..]));
        sa
    }

    fn check(text: &[u8]) {
        let d = device();
        let tv = ExtVec::from_slice(d, text).unwrap();
        let sa = suffix_array(&tv, &SortConfig::new(512)).unwrap();
        assert_eq!(
            sa.to_vec().unwrap(),
            reference_sa(text),
            "text {:?}",
            String::from_utf8_lossy(text)
        );
    }

    #[test]
    fn classic_banana() {
        check(b"banana");
        check(b"mississippi");
        check(b"abracadabra");
    }

    #[test]
    fn degenerate_texts() {
        check(b"");
        check(b"a");
        check(b"aa");
        check(b"aaaaaaaaaaaaaaaa"); // forces the full log N doubling rounds
        check(b"ab");
        check(b"ba");
        check(b"abababababab");
    }

    #[test]
    fn random_texts_small_alphabet() {
        let mut rng = Draws::new(191);
        for len in [50usize, 500, 3000] {
            let text: Vec<u8> = (0..len).map(|_| b'a' + rng.below(4) as u8).collect();
            check(&text);
        }
    }

    #[test]
    fn random_binary_data() {
        let mut rng = Draws::new(192);
        let text: Vec<u8> = (0..2000).map(|_| rng.next_u64() as u8).collect();
        check(&text);
    }

    #[test]
    fn search_finds_all_occurrences() {
        let d = device();
        let text = b"the quick brown fox jumps over the lazy dog; the end.";
        let tv = ExtVec::from_slice(d, text).unwrap();
        let sa = suffix_array(&tv, &SortConfig::new(512)).unwrap();
        assert_eq!(find_occurrences(&tv, &sa, b"the").unwrap(), vec![0, 31, 45]);
        assert_eq!(find_occurrences(&tv, &sa, b"fox").unwrap(), vec![16]);
        assert_eq!(
            find_occurrences(&tv, &sa, b"cat").unwrap(),
            Vec::<u64>::new()
        );
        assert_eq!(find_occurrences(&tv, &sa, b".").unwrap(), vec![52]);
    }

    #[test]
    fn an_empty_pattern_is_a_typed_error_before_any_transfer() {
        let d = device();
        let tv = ExtVec::from_slice(d.clone(), b"abracadabra").unwrap();
        let sa = suffix_array(&tv, &SortConfig::new(512)).unwrap();
        let before = d.stats().snapshot();
        assert!(matches!(
            find_occurrences(&tv, &sa, b""),
            Err(PdmError::InvalidRequest(_))
        ));
        assert_eq!(d.stats().snapshot().since(&before).total(), 0);
    }

    #[test]
    fn search_matches_naive_scan_on_random_text() {
        let d = device();
        let mut rng = Draws::new(193);
        let text: Vec<u8> = (0..4000).map(|_| b'a' + rng.below(3) as u8).collect();
        let tv = ExtVec::from_slice(d, &text).unwrap();
        let sa = suffix_array(&tv, &SortConfig::new(512)).unwrap();
        for plen in [1usize, 2, 4, 7] {
            let start = rng.below((text.len() - plen) as u64) as usize;
            let pattern = &text[start..start + plen];
            let got = find_occurrences(&tv, &sa, pattern).unwrap();
            let expect: Vec<u64> = (0..=text.len() - plen)
                .filter(|&i| &text[i..i + plen] == pattern)
                .map(|i| i as u64)
                .collect();
            assert_eq!(
                got,
                expect,
                "pattern {:?}",
                String::from_utf8_lossy(pattern)
            );
        }
    }

    #[test]
    fn overlapping_occurrences() {
        let d = device();
        let text = b"aaaa";
        let tv = ExtVec::from_slice(d, text).unwrap();
        let sa = suffix_array(&tv, &SortConfig::new(512)).unwrap();
        assert_eq!(find_occurrences(&tv, &sa, b"aa").unwrap(), vec![0, 1, 2]);
    }

    #[test]
    fn io_scales_with_sort_log() {
        let d = EmConfig::new(4096, 16).ram_disk();
        let mut rng = Draws::new(194);
        let n = 100_000usize;
        let text: Vec<u8> = (0..n).map(|_| b'a' + rng.below(26) as u8).collect();
        let tv = ExtVec::from_slice(d.clone(), &text).unwrap();
        let before = d.stats().snapshot();
        let sa = suffix_array(&tv, &SortConfig::new(16_384)).unwrap();
        let ios = d.stats().snapshot().since(&before).total();
        assert_eq!(sa.len() as usize, n);
        // With a 26-letter alphabet ranks are distinct after ~4 rounds;
        // each round is two sorts, of N triples and of N pairs.  (13 548
        // while every sort wrote its last load's resident tail.)
        assert_eq!(ios, 13_040);
    }

    #[test]
    fn temporaries_freed() {
        let d = device();
        let tv =
            ExtVec::from_slice(d.clone(), b"the rain in spain stays mainly in the plain").unwrap();
        let before = d.allocated_blocks();
        let sa = suffix_array(&tv, &SortConfig::new(512)).unwrap();
        assert_eq!(d.allocated_blocks(), before + sa.num_blocks() as u64);
    }
}
