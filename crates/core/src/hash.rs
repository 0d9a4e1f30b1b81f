//! Self-contained SHA-256 (FIPS 180-4) for mesh-artifact fingerprints.
//!
//! The chaos tests assert that `.node`/`.ele` output is bit-identical
//! across schedules by comparing digests, and every cache miss hashes its
//! whole response, so the primitive lives here rather than in a vendored
//! crate. [`Sha256::update`] hands all of its whole 64-byte blocks to one
//! multi-block compress call. On x86-64 hosts with the SHA extensions
//! (and SSE4.1), detected at run time, that call runs the
//! `sha256rnds2`/`sha256msg1`/`sha256msg2` instruction path; everywhere
//! else it runs the portable scalar loop. The scalar loop is also the
//! test oracle the hardware path is checked against.

const K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

/// Compresses every whole 64-byte block of `blocks` into `h`, in order.
type CompressFn = fn(&mut [u32; 8], &[u8]);

/// Streaming SHA-256 state.
pub struct Sha256 {
    h: [u32; 8],
    buf: [u8; 64],
    buf_len: usize,
    total: u64,
    compress: CompressFn,
}

impl Default for Sha256 {
    fn default() -> Self {
        Self::new()
    }
}

impl Sha256 {
    /// Fresh hash state.
    pub fn new() -> Self {
        Self::with_compress(compress_blocks)
    }

    fn with_compress(compress: CompressFn) -> Self {
        Sha256 {
            h: [
                0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab,
                0x5be0cd19,
            ],
            buf: [0; 64],
            buf_len: 0,
            total: 0,
            compress,
        }
    }

    /// Absorbs `data`.
    pub fn update(&mut self, data: &[u8]) {
        self.total = self.total.wrapping_add(data.len() as u64);
        let mut rest = data;
        if self.buf_len > 0 {
            let take = rest.len().min(64 - self.buf_len);
            self.buf[self.buf_len..self.buf_len + take].copy_from_slice(&rest[..take]);
            self.buf_len += take;
            rest = &rest[take..];
            if self.buf_len < 64 {
                return;
            }
            (self.compress)(&mut self.h, &self.buf);
            self.buf_len = 0;
        }
        let whole = rest.len() - rest.len() % 64;
        let (blocks, tail) = rest.split_at(whole);
        if !blocks.is_empty() {
            (self.compress)(&mut self.h, blocks);
        }
        self.buf[..tail.len()].copy_from_slice(tail);
        self.buf_len = tail.len();
    }

    /// Finishes and returns the 32-byte digest.
    pub fn finish(mut self) -> [u8; 32] {
        let bit_len = self.total.wrapping_mul(8);
        self.update(&[0x80]);
        while self.buf_len != 56 {
            self.update(&[0]);
        }
        // Length goes in raw: update() would recount it.
        self.buf[56..64].copy_from_slice(&bit_len.to_be_bytes());
        (self.compress)(&mut self.h, &self.buf);
        let mut out = [0u8; 32];
        for (i, w) in self.h.iter().enumerate() {
            out[4 * i..4 * i + 4].copy_from_slice(&w.to_be_bytes());
        }
        out
    }
}

/// The dispatched multi-block compress: the SHA-NI path when the CPU has
/// it, the scalar loop otherwise. Both produce the same state.
fn compress_blocks(h: &mut [u32; 8], blocks: &[u8]) {
    #[cfg(target_arch = "x86_64")]
    if shani::available() {
        // SAFETY: `available` has just confirmed at run time that the CPU
        // supports every feature `shani::compress` is compiled for.
        unsafe { shani::compress(h, blocks) };
        return;
    }
    compress_scalar(h, blocks);
}

/// The portable FIPS 180-4 compression loop, one block at a time.
fn compress_scalar(h: &mut [u32; 8], blocks: &[u8]) {
    for block in blocks.chunks_exact(64) {
        let mut w = [0u32; 64];
        for (i, chunk) in block.chunks_exact(4).enumerate() {
            w[i] = u32::from_be_bytes(chunk.try_into().expect("4-byte chunk"));
        }
        for i in 16..64 {
            let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
            let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
            w[i] = w[i - 16]
                .wrapping_add(s0)
                .wrapping_add(w[i - 7])
                .wrapping_add(s1);
        }
        let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut hh] = *h;
        for i in 0..64 {
            let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
            let ch = (e & f) ^ (!e & g);
            let t1 = hh
                .wrapping_add(s1)
                .wrapping_add(ch)
                .wrapping_add(K[i])
                .wrapping_add(w[i]);
            let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
            let maj = (a & b) ^ (a & c) ^ (b & c);
            let t2 = s0.wrapping_add(maj);
            hh = g;
            g = f;
            f = e;
            e = d.wrapping_add(t1);
            d = c;
            c = b;
            b = a;
            a = t1.wrapping_add(t2);
        }
        for (s, v) in h.iter_mut().zip([a, b, c, d, e, f, g, hh]) {
            *s = s.wrapping_add(v);
        }
    }
}

/// The x86-64 SHA extensions path (Intel's `sha256rnds2` schedule: the
/// state lives as the ABEF/CDGH register pair, four rounds per quad of
/// message words).
#[cfg(target_arch = "x86_64")]
mod shani {
    use super::K;
    use std::arch::x86_64::*;

    /// True when the CPU has every feature [`compress`] is compiled for.
    pub(super) fn available() -> bool {
        is_x86_feature_detected!("sha")
            && is_x86_feature_detected!("sse2")
            && is_x86_feature_detected!("ssse3")
            && is_x86_feature_detected!("sse4.1")
    }

    /// Compresses every whole 64-byte block of `blocks` into `h`.
    ///
    /// # Safety
    /// The caller must have checked [`available`]. Every load and store
    /// is unaligned and stays inside `h`, `K` or a 64-byte chunk of
    /// `blocks`.
    #[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
    pub(super) unsafe fn compress(h: &mut [u32; 8], blocks: &[u8]) {
        // Byte order within each 32-bit word: the message is big-endian.
        let bswap = _mm_set_epi64x(0x0c0d_0e0f_0809_0a0b, 0x0405_0607_0001_0203);
        let dcba = _mm_loadu_si128(h.as_ptr().cast());
        let hgfe = _mm_loadu_si128(h.as_ptr().add(4).cast());
        let cdab = _mm_shuffle_epi32(dcba, 0xB1);
        let efgh = _mm_shuffle_epi32(hgfe, 0x1B);
        let mut abef = _mm_alignr_epi8(cdab, efgh, 8);
        let mut cdgh = _mm_blend_epi16(efgh, cdab, 0xF0);
        for block in blocks.chunks_exact(64) {
            let (abef_in, cdgh_in) = (abef, cdgh);
            let p = block.as_ptr();
            let load = |at: usize| _mm_shuffle_epi8(_mm_loadu_si128(p.add(at).cast()), bswap);
            let (mut w0, mut w1, mut w2, mut w3) = (load(0), load(16), load(32), load(48));
            // Rounds 4q..4q+4 on the message words `w` of quad q.
            macro_rules! rounds {
                ($q:expr, $w:expr) => {{
                    let wk = _mm_add_epi32($w, _mm_loadu_si128(K.as_ptr().add(4 * $q).cast()));
                    cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
                    abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32(wk, 0x0E));
                }};
            }
            // Finishes the words of the quad after `cur` (msg1 started them
            // three quads earlier).
            macro_rules! finish_next {
                ($next:ident, $cur:expr, $prev:expr) => {
                    $next = _mm_sha256msg2_epu32(
                        _mm_add_epi32($next, _mm_alignr_epi8($cur, $prev, 4)),
                        $cur,
                    );
                };
            }
            rounds!(0, w0);
            rounds!(1, w1);
            w0 = _mm_sha256msg1_epu32(w0, w1);
            rounds!(2, w2);
            w1 = _mm_sha256msg1_epu32(w1, w2);
            rounds!(3, w3);
            finish_next!(w0, w3, w2);
            w2 = _mm_sha256msg1_epu32(w2, w3);
            for q in [4, 8] {
                rounds!(q, w0);
                finish_next!(w1, w0, w3);
                w3 = _mm_sha256msg1_epu32(w3, w0);
                rounds!(q + 1, w1);
                finish_next!(w2, w1, w0);
                w0 = _mm_sha256msg1_epu32(w0, w1);
                rounds!(q + 2, w2);
                finish_next!(w3, w2, w1);
                w1 = _mm_sha256msg1_epu32(w1, w2);
                rounds!(q + 3, w3);
                finish_next!(w0, w3, w2);
                w2 = _mm_sha256msg1_epu32(w2, w3);
            }
            rounds!(12, w0);
            finish_next!(w1, w0, w3);
            w3 = _mm_sha256msg1_epu32(w3, w0);
            rounds!(13, w1);
            finish_next!(w2, w1, w0);
            rounds!(14, w2);
            finish_next!(w3, w2, w1);
            rounds!(15, w3);
            abef = _mm_add_epi32(abef, abef_in);
            cdgh = _mm_add_epi32(cdgh, cdgh_in);
        }
        let feba = _mm_shuffle_epi32(abef, 0x1B);
        let dchg = _mm_shuffle_epi32(cdgh, 0xB1);
        _mm_storeu_si128(h.as_mut_ptr().cast(), _mm_blend_epi16(feba, dchg, 0xF0));
        _mm_storeu_si128(h.as_mut_ptr().add(4).cast(), _mm_alignr_epi8(dchg, feba, 8));
    }
}

/// SHA-256 of `data` as a lowercase hex string.
pub fn sha256_hex(data: &[u8]) -> String {
    let mut state = Sha256::new();
    state.update(data);
    let digest = state.finish();
    let mut s = String::with_capacity(64);
    for b in digest {
        use std::fmt::Write;
        write!(s, "{b:02x}").expect("write to String");
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fips_vectors() {
        assert_eq!(
            sha256_hex(b""),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        );
        assert_eq!(
            sha256_hex(b"abc"),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        );
        assert_eq!(
            sha256_hex(b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
        );
    }

    #[test]
    fn million_a() {
        let mut state = Sha256::new();
        // Streamed in awkward chunk sizes to exercise buffering.
        let chunk = [b'a'; 997];
        let mut fed = 0usize;
        while fed < 1_000_000 {
            let n = (1_000_000 - fed).min(chunk.len());
            state.update(&chunk[..n]);
            fed += n;
        }
        let hex: String = state.finish().iter().map(|b| format!("{b:02x}")).collect();
        assert_eq!(
            hex,
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
        );
    }

    /// Seeded bytes (xorshift64*), so every run hashes the same input.
    fn seeded_bytes(n: usize, seed: u64) -> Vec<u8> {
        let mut x = seed | 1;
        (0..n)
            .map(|_| {
                x ^= x >> 12;
                x ^= x << 25;
                x ^= x >> 27;
                (x.wrapping_mul(0x2545_f491_4f6c_dd1d) >> 56) as u8
            })
            .collect()
    }

    fn digest_with(compress: CompressFn, parts: &[&[u8]]) -> [u8; 32] {
        let mut st = Sha256::with_compress(compress);
        for p in parts {
            st.update(p);
        }
        st.finish()
    }

    #[test]
    fn dispatched_matches_scalar_at_every_length() {
        let data = seeded_bytes(300, 7);
        for n in 0..=300 {
            let d = &data[..n];
            assert_eq!(
                digest_with(compress_blocks, &[d]),
                digest_with(compress_scalar, &[d]),
                "length {n}"
            );
        }
    }

    #[test]
    fn dispatched_matches_scalar_at_every_split() {
        let data = seeded_bytes(200, 11);
        let whole = digest_with(compress_scalar, &[&data]);
        for cut in 0..=data.len() {
            let (a, b) = data.split_at(cut);
            assert_eq!(digest_with(compress_blocks, &[a, b]), whole, "split {cut}");
            assert_eq!(digest_with(compress_scalar, &[a, b]), whole, "split {cut}");
        }
    }

    #[test]
    fn dispatched_matches_scalar_on_7mb() {
        let data = seeded_bytes(7 << 20, 13);
        assert_eq!(
            digest_with(compress_blocks, &[&data]),
            digest_with(compress_scalar, &[&data])
        );
    }

    /// On a host with the SHA extensions the dispatched path *is* the
    /// hardware one, so the oracle tests above cover it; say so when they
    /// could not.
    #[test]
    fn sha_ni_arm_runs_or_says_it_was_skipped() {
        #[cfg(target_arch = "x86_64")]
        if shani::available() {
            let data = seeded_bytes(4096 + 17, 17);
            let mut h_ni = Sha256::new().h;
            let mut h_scalar = h_ni;
            compress_blocks(&mut h_ni, &data);
            compress_scalar(&mut h_scalar, &data);
            assert_eq!(h_ni, h_scalar);
            return;
        }
        println!("sha_ni_arm: skipped, this host lacks the SHA extensions");
    }

    #[test]
    fn block_boundary_lengths() {
        // 55/56/63/64/65 bytes straddle the padding edge cases.
        for n in [0usize, 1, 55, 56, 57, 63, 64, 65, 127, 128, 129] {
            let data = vec![0xA5u8; n];
            let one_shot = sha256_hex(&data);
            let mut st = Sha256::new();
            for b in &data {
                st.update(std::slice::from_ref(b));
            }
            let streamed: String = st.finish().iter().map(|b| format!("{b:02x}")).collect();
            assert_eq!(one_shot, streamed, "length {n}");
        }
    }
}
