//! Packed u64 bitsets for per-slot liveness and visited marks.
//!
//! The mesh keeps one bit per triangle slot instead of one `bool` (8x the
//! footprint and 8x the cache traffic on the cavity BFS, which reads the
//! liveness of every neighbor it touches). The same type backs the
//! flood-fill visited marks in `cdt::carve` and the face-walk marks in
//! `divconq`; the insertion scratch keeps its epoch-stamped `u32` array
//! instead, because epochs never need the O(n/64) clear a bitset pays per
//! episode.

/// A growable set of bits packed 64 per word.
#[derive(Debug, Clone, Default)]
pub struct BitSet {
    words: Vec<u64>,
    /// Number of addressable bits (`words.len() * 64` rounded down to the
    /// logical length the caller asked for).
    len: usize,
}

impl BitSet {
    /// An empty set with no addressable bits.
    pub fn new() -> Self {
        BitSet::default()
    }

    /// A set of `len` bits, all initialized to `value`.
    pub fn with_len(len: usize, value: bool) -> Self {
        let fill = if value { u64::MAX } else { 0 };
        let mut s = BitSet {
            words: vec![fill; len.div_ceil(64)],
            len,
        };
        s.clamp_tail();
        s
    }

    /// Number of addressable bits.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when the set addresses no bits.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Reserves capacity for at least `additional` more bits.
    pub fn reserve(&mut self, additional: usize) {
        let need = (self.len + additional).div_ceil(64);
        self.words.reserve(need.saturating_sub(self.words.len()));
    }

    /// Appends one bit.
    #[inline]
    pub fn push(&mut self, value: bool) {
        let (w, b) = (self.len / 64, self.len % 64);
        if b == 0 {
            self.words.push(0);
        }
        if value {
            self.words[w] |= 1u64 << b;
        }
        self.len += 1;
    }

    /// Grows (or shrinks) to `len` bits; new bits take `value`.
    pub fn resize(&mut self, len: usize, value: bool) {
        if len <= self.len {
            self.len = len;
            self.words.truncate(len.div_ceil(64));
            self.clamp_tail();
            return;
        }
        if value {
            // Set the tail of the current last word, then fill whole words.
            let b = self.len % 64;
            if b != 0 {
                *self.words.last_mut().expect("partial word exists") |= !0u64 << b;
            }
            self.words.resize(len.div_ceil(64), u64::MAX);
        } else {
            self.words.resize(len.div_ceil(64), 0);
        }
        self.len = len;
        self.clamp_tail();
    }

    /// Reads bit `i`.
    ///
    /// # Panics
    /// Panics if `i >= len` (same contract as slice indexing).
    #[inline]
    pub fn get(&self, i: usize) -> bool {
        assert!(i < self.len, "bit index {i} out of range {}", self.len);
        (self.words[i / 64] >> (i % 64)) & 1 != 0
    }

    /// Writes bit `i`.
    #[inline]
    pub fn set(&mut self, i: usize, value: bool) {
        assert!(i < self.len, "bit index {i} out of range {}", self.len);
        let mask = 1u64 << (i % 64);
        if value {
            self.words[i / 64] |= mask;
        } else {
            self.words[i / 64] &= !mask;
        }
    }

    /// Number of set bits.
    pub fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Zeroes any bits past `len` in the last word so `count_ones` never
    /// sees ghosts left by shrinking.
    fn clamp_tail(&mut self) {
        let b = self.len % 64;
        if b != 0 {
            if let Some(last) = self.words.last_mut() {
                *last &= (1u64 << b) - 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_get_set_roundtrip() {
        let mut s = BitSet::new();
        for i in 0..130 {
            s.push(i % 3 == 0);
        }
        assert_eq!(s.len(), 130);
        for i in 0..130 {
            assert_eq!(s.get(i), i % 3 == 0, "bit {i}");
        }
        s.set(1, true);
        s.set(0, false);
        assert!(s.get(1));
        assert!(!s.get(0));
        // 44 multiples of 3 in 0..130; set(1) adds one, clear(0) removes one.
        assert_eq!(s.count_ones(), 130usize.div_ceil(3));
    }

    #[test]
    fn with_len_and_resize_fill_values() {
        let mut s = BitSet::with_len(70, true);
        assert_eq!(s.count_ones(), 70);
        s.resize(64, true);
        assert_eq!(s.count_ones(), 64);
        s.resize(200, false);
        assert_eq!(s.count_ones(), 64);
        s.resize(300, true);
        assert_eq!(s.count_ones(), 64 + 100);
        assert!(!s.get(199));
        assert!(s.get(200));
    }

    #[test]
    fn bits_cross_word_boundaries() {
        let mut s = BitSet::with_len(200, false);
        let ones = [0, 63, 64, 65, 127, 128, 199];
        for &i in &ones {
            s.set(i, true);
        }
        let got: Vec<usize> = (0..200).filter(|&i| s.get(i)).collect();
        assert_eq!(got, ones);
        assert_eq!(s.count_ones(), ones.len());
    }

    #[test]
    fn shrink_then_grow_does_not_resurrect_bits() {
        let mut s = BitSet::with_len(100, true);
        s.resize(65, true);
        s.resize(100, false);
        assert_eq!(s.count_ones(), 65);
        assert!(!s.get(66));
    }
}
