//! Self-contained non-cryptographic hashes.
//!
//! The simulator needs fast, deterministic, well-mixed hashes for Bloom
//! filters, access paths, key fingerprints, and the Schnorr challenge. We
//! use FNV-1a as the absorbing core and a SplitMix64-style finalizer for
//! avalanche. **Not collision-resistant against adversaries** — adequate
//! only inside a simulation, which is documented in DESIGN.md.

/// FNV-1a offset basis.
const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;
/// FNV-1a prime.
const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;

/// One-shot FNV-1a over a byte slice.
///
/// # Examples
///
/// ```
/// use tactic_crypto::hash::fnv1a64;
///
/// assert_eq!(fnv1a64(b""), 0xCBF29CE484222325);
/// assert_ne!(fnv1a64(b"a"), fnv1a64(b"b"));
/// ```
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h = FNV_OFFSET;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// SplitMix64-style finalizer: full-avalanche mixing of a 64-bit word.
#[inline]
pub const fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// An incremental 64-bit hasher (FNV-1a core + finalizer).
///
/// # Examples
///
/// ```
/// use tactic_crypto::hash::Hasher64;
///
/// let mut h = Hasher64::new();
/// h.update(b"hello ");
/// h.update(b"world");
/// let joint = h.finish();
///
/// let mut h2 = Hasher64::new();
/// h2.update(b"hello world");
/// assert_eq!(joint, h2.finish());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Hasher64 {
    state: u64,
}

impl Default for Hasher64 {
    fn default() -> Self {
        Self::new()
    }
}

impl Hasher64 {
    /// Creates a hasher with the standard FNV offset.
    pub fn new() -> Self {
        Hasher64 { state: FNV_OFFSET }
    }

    /// Creates a seeded hasher (distinct hash families per seed).
    pub fn with_seed(seed: u64) -> Self {
        Hasher64 {
            state: FNV_OFFSET ^ mix64(seed),
        }
    }

    /// Absorbs bytes.
    pub fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.state ^= b as u64;
            self.state = self.state.wrapping_mul(FNV_PRIME);
        }
    }

    /// Absorbs a little-endian u64.
    pub fn update_u64(&mut self, v: u64) {
        self.update(&v.to_le_bytes());
    }

    /// Finalizes into a well-mixed 64-bit digest.
    pub fn finish(&self) -> u64 {
        mix64(self.state)
    }
}

/// The starting states of [`Digest256`]'s four lanes: each is a
/// [`Hasher64::with_seed`] state under its own seed.
const DIGEST_LANES: [u64; 4] = {
    let mut lanes = [0u64; 4];
    let mut i = 0;
    while i < 4 {
        let seed = 0xD1B5_4A32_D192_ED03 ^ (i as u64).wrapping_mul(0xABCD_EF12_3456_789B);
        lanes[i] = FNV_OFFSET ^ mix64(seed);
        i += 1;
    }
    lanes
};

/// A 256-bit digest, exposed as four 64-bit lanes.
///
/// Each lane is an FNV-1a state under its own seed, finalized like
/// [`Hasher64::finish`]; every input byte is absorbed into all four lanes
/// in one pass, so the four multiply chains run side by side. Used as the
/// message digest inside simulated signatures so that any single-byte
/// change flips the digest with overwhelming probability.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, PartialOrd, Ord)]
pub struct Digest256(pub [u64; 4]);

/// Absorbs `bytes` into all four lanes at once.
#[inline]
fn absorb4(lanes: &mut [u64; 4], bytes: &[u8]) {
    for &b in bytes {
        for lane in lanes.iter_mut() {
            *lane = (*lane ^ b as u64).wrapping_mul(FNV_PRIME);
        }
    }
}

impl Digest256 {
    /// Hashes a byte slice into a 256-bit digest.
    ///
    /// # Examples
    ///
    /// ```
    /// use tactic_crypto::hash::Digest256;
    ///
    /// let a = Digest256::of(b"content");
    /// let b = Digest256::of(b"content");
    /// let c = Digest256::of(b"Content");
    /// assert_eq!(a, b);
    /// assert_ne!(a, c);
    /// ```
    pub fn of(bytes: &[u8]) -> Self {
        let mut lanes = DIGEST_LANES;
        absorb4(&mut lanes, bytes);
        Digest256(lanes.map(mix64))
    }

    /// Hashes the concatenation of several byte slices (length-prefixed, so
    /// `["ab","c"]` and `["a","bc"]` differ).
    pub fn of_parts(parts: &[&[u8]]) -> Self {
        let mut lanes = DIGEST_LANES;
        for p in parts {
            absorb4(&mut lanes, &(p.len() as u64).to_le_bytes());
            absorb4(&mut lanes, p);
        }
        Digest256(lanes.map(mix64))
    }

    /// Folds the digest into a single 64-bit word.
    pub fn fold64(&self) -> u64 {
        mix64(
            self.0[0]
                ^ self.0[1].rotate_left(16)
                ^ self.0[2].rotate_left(32)
                ^ self.0[3].rotate_left(48),
        )
    }

    /// The digest as raw bytes (little-endian lanes).
    pub fn to_bytes(self) -> [u8; 32] {
        let mut out = [0u8; 32];
        for (i, lane) in self.0.iter().enumerate() {
            out[i * 8..(i + 1) * 8].copy_from_slice(&lane.to_le_bytes());
        }
        out
    }
}

impl std::fmt::Display for Digest256 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{:016x}{:016x}{:016x}{:016x}",
            self.0[0], self.0[1], self.0[2], self.0[3]
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_known_vectors() {
        assert_eq!(fnv1a64(b""), 0xCBF2_9CE4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xAF63_DC4C_8601_EC8C);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171F73967E8);
    }

    #[test]
    fn seeded_hashers_form_distinct_families() {
        let mut a = Hasher64::with_seed(1);
        let mut b = Hasher64::with_seed(2);
        a.update(b"same input");
        b.update(b"same input");
        assert_ne!(a.finish(), b.finish());
    }

    #[test]
    fn incremental_equals_oneshot() {
        let mut h = Hasher64::new();
        h.update(b"foo");
        h.update(b"bar");
        assert_eq!(h.finish(), mix64(fnv1a64(b"foobar")));
    }

    /// The four independently-seeded [`Hasher64`] passes the one-pass
    /// digest replaced; with `prefixed` false it hashes `parts` without
    /// length prefixes, like [`Digest256::of`].
    fn four_pass_reference(parts: &[&[u8]], prefixed: bool) -> Digest256 {
        let mut lanes = [0u64; 4];
        for (i, lane) in lanes.iter_mut().enumerate() {
            let mut h = Hasher64::with_seed(
                0xD1B5_4A32_D192_ED03 ^ (i as u64).wrapping_mul(0xABCD_EF12_3456_789B),
            );
            for p in parts {
                if prefixed {
                    h.update_u64(p.len() as u64);
                }
                h.update(p);
            }
            *lane = h.finish();
        }
        Digest256(lanes)
    }

    #[test]
    fn one_pass_digest_matches_four_passes() {
        let long: Vec<u8> = (0..1_000u32).map(|i| (i * 31 % 251) as u8).collect();
        let inputs: [&[&[u8]]; 6] = [
            &[],
            &[b""],
            &[b"content"],
            &[&long],
            &[b"ab", b"c"],
            &[b"", b"r-bytes", &long, b"\x00\xff"],
        ];
        for parts in inputs {
            assert_eq!(Digest256::of_parts(parts), four_pass_reference(parts, true));
            let joined = parts.concat();
            assert_eq!(
                Digest256::of(&joined),
                four_pass_reference(&[&joined], false)
            );
        }
        // Pinned before the one-pass rewrite.
        assert_eq!(
            Digest256::of(b"").0,
            [
                0x9274_d802_ffa8_4101,
                0x20c6_b4fa_78f8_edda,
                0x2899_e0bd_39b0_8147,
                0x1baa_b411_87bb_d4c5
            ]
        );
        assert_eq!(
            Digest256::of(b"content").0,
            [
                0x4a24_4f07_4882_ff81,
                0x33c8_34ed_4e4f_2a0d,
                0x796e_22be_4144_2fc3,
                0x36a9_0596_2bbe_50c9
            ]
        );
        assert_eq!(
            Digest256::of_parts(&[b"ab", b"c"]).0,
            [
                0xa0f2_6cb7_c1df_d1b5,
                0xf59a_fa51_9987_6a2e,
                0x1e86_0d79_2f38_d4d5,
                0x7da1_ba2f_6b3f_e1b8
            ]
        );
    }

    #[test]
    fn digest_parts_are_length_prefixed() {
        let a = Digest256::of_parts(&[b"ab", b"c"]);
        let b = Digest256::of_parts(&[b"a", b"bc"]);
        assert_ne!(a, b);
    }

    #[test]
    fn digest_avalanche() {
        let a = Digest256::of(b"tag-0001");
        let b = Digest256::of(b"tag-0002");
        let differing =
            a.0.iter()
                .zip(b.0.iter())
                .map(|(x, y)| (x ^ y).count_ones())
                .sum::<u32>();
        // ~128 of 256 bits should flip; accept a broad band.
        assert!(
            (64..192).contains(&differing),
            "only {differing} bits differ"
        );
    }

    #[test]
    fn digest_bytes_roundtrip_lanes() {
        let d = Digest256::of(b"x");
        let bytes = d.to_bytes();
        assert_eq!(u64::from_le_bytes(bytes[0..8].try_into().unwrap()), d.0[0]);
        assert_eq!(
            u64::from_le_bytes(bytes[24..32].try_into().unwrap()),
            d.0[3]
        );
    }

    #[test]
    fn mix64_changes_zero() {
        assert_ne!(mix64(0), 0);
        assert_ne!(mix64(1), mix64(2));
    }

    #[test]
    fn fold64_is_stable() {
        let d = Digest256::of(b"stable");
        assert_eq!(d.fold64(), Digest256::of(b"stable").fold64());
    }
}
