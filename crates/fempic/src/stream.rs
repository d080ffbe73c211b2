//! Counter-based random streams (Salmon et al., "Parallel random
//! numbers: as easy as 1, 2, 3", SC 2011).
//!
//! A draw is a pure function of its key `(seed, tag, index, draw)`:
//! no generator state is carried from one particle to the next, so a
//! par loop may cut its iteration set into any pieces, on any policy,
//! and every element still draws the same bits. The stream tag keeps
//! the users apart: the collision step passes its step number, the
//! injection passes [`INJECT_TAG`] with the global injection index.

/// SplitMix64's increment (the 64-bit golden ratio).
const GOLDEN: u64 = 0x9E37_79B9_7F4A_7C15;

/// Stream tag of `Inject`: the ASCII bytes `"inject"`, far above any
/// step number the collision stream uses as its tag.
pub const INJECT_TAG: u64 = u64::from_be_bytes(*b"inject\0\0");

/// `N` uniforms in `[0, 1)` for key `(seed, tag, index)`: draw `k` is
/// the `k + 1`-th SplitMix64 output from a state that mixes the three
/// key words, taken to 53 bits.
#[inline]
pub fn uniforms<const N: usize>(seed: u64, tag: u64, index: u64) -> [f64; N] {
    let mut s = seed ^ tag.rotate_left(24) ^ index.wrapping_mul(GOLDEN);
    // `from_fn` fills the array in ascending order: draw `k` is output `k`.
    std::array::from_fn(|_| {
        s = s.wrapping_add(GOLDEN);
        let mut z = s;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        (z >> 11) as f64 / (1u64 << 53) as f64
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn collision_draws_keep_their_recorded_bits() {
        // `(seed, step, particle)` keys of the collision stream, with
        // the bits its three-draw function produced before it became
        // `uniforms::<3>`.
        let recorded: [((u64, u64, u64), [u64; 3]); 5] = [
            (
                (0, 0, 0),
                [0x3fec4415072f63b9, 0x3fdb9e279aa86e58, 0x3f9b117462002500],
            ),
            (
                (1, 1, 0),
                [0x3feb2233ae94807d, 0x3fe2726bd1302b1d, 0x3fca6b6245f0af7c],
            ),
            (
                (7, 1, 1999),
                [0x3fef0f3d04b95888, 0x3fcd1cb9e4107434, 0x3fbf02158743cf98],
            ),
            (
                (11, 9, 4242),
                [0x3fee66e8459cb27c, 0x3fd8ed0378b8bfc8, 0x3fd1a670ee559b9a],
            ),
            (
                (0xDEAD_BEEF, 60, 123_456),
                [0x3fe1d272e6809d3b, 0x3fefa1f83b54c6cc, 0x3fd4b15383de6e64],
            ),
        ];
        for ((seed, step, particle), bits) in recorded {
            let got = uniforms::<3>(seed, step, particle).map(f64::to_bits);
            assert_eq!(got, bits, "key ({seed}, {step}, {particle})");
        }
    }

    #[test]
    fn injection_draws_are_unit_and_do_not_repeat() {
        for seed in [0, 1, 5, 11] {
            let mut seen = HashSet::new();
            for index in 0..1u64 << 16 {
                for r in uniforms::<6>(seed, INJECT_TAG, index) {
                    assert!((0.0..1.0).contains(&r), "seed {seed}: {r}");
                    assert!(seen.insert(r.to_bits()), "seed {seed}: {r} repeats");
                }
            }
        }
    }
}
