//! A binary min-heap parameterized by a comparator function.
//!
//! `std::collections::BinaryHeap` requires `Ord`, but the sorts in this crate
//! accept arbitrary comparators (`merge_sort_by` etc.), so we keep a small
//! sift-based heap of our own.  It is also used by replacement selection,
//! which needs the classic two-zone ("current run" / "next run") trick.

/// Min-heap over `T` with an explicit comparator.
pub(crate) struct MinHeap<T, F> {
    items: Vec<T>,
    less: F,
}

impl<T, F: FnMut(&T, &T) -> bool> MinHeap<T, F> {
    /// Create an empty heap with pre-reserved capacity; `less(a, b)` must
    /// return true iff `a` orders strictly before `b`.
    pub fn with_capacity(cap: usize, less: F) -> Self {
        MinHeap {
            items: Vec::with_capacity(cap),
            less,
        }
    }

    pub fn len(&self) -> usize {
        self.items.len()
    }

    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    pub fn peek(&self) -> Option<&T> {
        self.items.first()
    }

    pub fn push(&mut self, item: T) {
        self.items.push(item);
        self.sift_up(self.items.len() - 1);
    }

    pub fn pop(&mut self) -> Option<T> {
        if self.items.is_empty() {
            return None;
        }
        let last = self.items.len() - 1;
        self.items.swap(0, last);
        let top = self.items.pop();
        if !self.items.is_empty() {
            self.sift_down(0);
        }
        top
    }

    /// Replace the minimum with `item` in one sift (cheaper than pop+push).
    /// Returns the old minimum.  The heap is not empty: the one caller
    /// peeks first.
    pub(crate) fn replace_min(&mut self, item: T) -> T {
        debug_assert!(!self.items.is_empty(), "replace_min on empty heap");
        let old = std::mem::replace(&mut self.items[0], item);
        self.sift_down(0);
        old
    }

    fn sift_up(&mut self, mut i: usize) {
        while i > 0 {
            let parent = (i - 1) / 2;
            if (self.less)(&self.items[i], &self.items[parent]) {
                self.items.swap(i, parent);
                i = parent;
            } else {
                break;
            }
        }
    }

    fn sift_down(&mut self, mut i: usize) {
        let n = self.items.len();
        loop {
            let (l, r) = (2 * i + 1, 2 * i + 2);
            let mut smallest = i;
            if l < n && (self.less)(&self.items[l], &self.items[smallest]) {
                smallest = l;
            }
            if r < n && (self.less)(&self.items[r], &self.items[smallest]) {
                smallest = r;
            }
            if smallest == i {
                break;
            }
            self.items.swap(i, smallest);
            i = smallest;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use em_core::hash::Draws;

    #[test]
    fn drains_in_order() {
        let mut h = MinHeap::with_capacity(0, |a: &i32, b: &i32| a < b);
        for x in [5, 1, 4, 1, 3, 9, 2, 6] {
            h.push(x);
        }
        let mut out = Vec::new();
        while let Some(x) = h.pop() {
            out.push(x);
        }
        assert_eq!(out, vec![1, 1, 2, 3, 4, 5, 6, 9]);
    }

    #[test]
    fn custom_comparator_reverses() {
        let mut h = MinHeap::with_capacity(0, |a: &i32, b: &i32| a > b); // max-heap
        for x in [3, 7, 1] {
            h.push(x);
        }
        assert_eq!(h.pop(), Some(7));
        assert_eq!(h.pop(), Some(3));
        assert_eq!(h.pop(), Some(1));
        assert_eq!(h.pop(), None);
    }

    #[test]
    fn replace_min_keeps_heap_property() {
        let mut h = MinHeap::with_capacity(0, |a: &i32, b: &i32| a < b);
        for x in [4, 8, 6] {
            h.push(x);
        }
        assert_eq!(h.replace_min(10), 4);
        assert_eq!(h.pop(), Some(6));
        assert_eq!(h.pop(), Some(8));
        assert_eq!(h.pop(), Some(10));
    }

    #[test]
    fn randomized_against_sorted_vec() {
        let mut rng = Draws::new(7);
        for _ in 0..20 {
            let mut v: Vec<u32> = (0..200).map(|_| rng.below(1000) as u32).collect();
            let mut h = MinHeap::with_capacity(v.len(), |a: &u32, b: &u32| a < b);
            for &x in &v {
                h.push(x);
            }
            v.sort_unstable();
            let drained: Vec<u32> = std::iter::from_fn(|| h.pop()).collect();
            assert_eq!(drained, v);
        }
    }

    // The emptiness check is a debug assertion; a release build panics at
    // the index instead, with another message.
    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "replace_min on empty heap")]
    fn replace_min_empty_panics() {
        let mut h = MinHeap::with_capacity(0, |a: &i32, b: &i32| a < b);
        h.replace_min(1);
    }
}
