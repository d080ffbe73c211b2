//! Workspace-local ChaCha8 random number generator.
//!
//! A genuine ChaCha keystream (8 rounds, IETF constants) addressed by
//! *word position*: the generator hands out the 16 little-endian u32
//! words of block `word_pos / 16` in order, which makes the stream
//! random-access — [`ChaCha8Rng::get_word_pos`] /
//! [`ChaCha8Rng::set_word_pos`] give the exact checkpoint/restore
//! semantics Mini-FEM-PIC relies on for bit-exact restarts.
//!
//! Streams are not bit-compatible with crates.io `rand_chacha` (the
//! word-consumption order differs); the workspace needs determinism
//! and seekability, not upstream parity.

use rand::{RngCore, SeedableRng};

const CHACHA_CONSTANTS: [u32; 4] = [0x6170_7865, 0x3320_646e, 0x7962_2d32, 0x6b20_6574];

/// ChaCha with 8 rounds, seekable by 32-bit word.
#[derive(Debug, Clone)]
pub struct ChaCha8Rng {
    key: [u32; 8],
    /// Words consumed so far (= next word to hand out).
    word_pos: u128,
    /// Cached keystream block and its block index.
    block: [u32; 16],
    cached_block: Option<u128>,
}

#[inline]
fn quarter_round(state: &mut [u32; 16], a: usize, b: usize, c: usize, d: usize) {
    state[a] = state[a].wrapping_add(state[b]);
    state[d] = (state[d] ^ state[a]).rotate_left(16);
    state[c] = state[c].wrapping_add(state[d]);
    state[b] = (state[b] ^ state[c]).rotate_left(12);
    state[a] = state[a].wrapping_add(state[b]);
    state[d] = (state[d] ^ state[a]).rotate_left(8);
    state[c] = state[c].wrapping_add(state[d]);
    state[b] = (state[b] ^ state[c]).rotate_left(7);
}

impl ChaCha8Rng {
    /// Compute keystream block `index` (64-bit counter, zero nonce).
    fn block_at(&self, index: u128) -> [u32; 16] {
        let counter = index as u64;
        let mut state = [0u32; 16];
        state[..4].copy_from_slice(&CHACHA_CONSTANTS);
        state[4..12].copy_from_slice(&self.key);
        state[12] = counter as u32;
        state[13] = (counter >> 32) as u32;
        state[14] = 0;
        state[15] = 0;
        let initial = state;
        for _ in 0..4 {
            // One double round = 1 column + 1 diagonal round; 4 double
            // rounds = ChaCha8.
            quarter_round(&mut state, 0, 4, 8, 12);
            quarter_round(&mut state, 1, 5, 9, 13);
            quarter_round(&mut state, 2, 6, 10, 14);
            quarter_round(&mut state, 3, 7, 11, 15);
            quarter_round(&mut state, 0, 5, 10, 15);
            quarter_round(&mut state, 1, 6, 11, 12);
            quarter_round(&mut state, 2, 7, 8, 13);
            quarter_round(&mut state, 3, 4, 9, 14);
        }
        for (s, i) in state.iter_mut().zip(initial) {
            *s = s.wrapping_add(i);
        }
        state
    }

    /// Load block `index` into the cache: the cold half of
    /// `next_u32` (once per 16 words), kept out of line so the word
    /// path stays small enough to inline into its callers.
    #[inline(never)]
    fn refill(&mut self, index: u128) {
        self.block = self.block_at(index);
        self.cached_block = Some(index);
    }

    /// Stream position in 32-bit words.
    pub fn get_word_pos(&self) -> u128 {
        self.word_pos
    }

    /// Seek to an absolute stream position in 32-bit words.
    pub fn set_word_pos(&mut self, word_pos: u128) {
        self.word_pos = word_pos;
        self.cached_block = None;
    }
}

impl SeedableRng for ChaCha8Rng {
    type Seed = [u8; 32];

    fn from_seed(seed: [u8; 32]) -> Self {
        let mut key = [0u32; 8];
        for (k, chunk) in key.iter_mut().zip(seed.chunks_exact(4)) {
            *k = u32::from_le_bytes(chunk.try_into().expect("4-byte chunk"));
        }
        ChaCha8Rng {
            key,
            word_pos: 0,
            block: [0; 16],
            cached_block: None,
        }
    }
}

impl RngCore for ChaCha8Rng {
    #[inline]
    fn next_u32(&mut self) -> u32 {
        let block_index = self.word_pos / 16;
        if self.cached_block != Some(block_index) {
            self.refill(block_index);
        }
        let word = self.block[(self.word_pos % 16) as usize];
        self.word_pos += 1;
        word
    }

    #[inline]
    fn next_u64(&mut self) -> u64 {
        let lo = self.next_u32() as u64;
        let hi = self.next_u32() as u64;
        (hi << 32) | lo
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    #[test]
    fn same_seed_same_stream() {
        let mut a = ChaCha8Rng::seed_from_u64(99);
        let mut b = ChaCha8Rng::seed_from_u64(99);
        for _ in 0..100 {
            assert_eq!(a.next_u32(), b.next_u32());
        }
        let mut c = ChaCha8Rng::seed_from_u64(100);
        let va: Vec<u32> = (0..8).map(|_| a.next_u32()).collect();
        let vc: Vec<u32> = (0..8).map(|_| c.next_u32()).collect();
        assert_ne!(va, vc);
    }

    #[test]
    fn word_pos_seek_replays_exactly() {
        let mut rng = ChaCha8Rng::seed_from_u64(0x0FF1CE);
        // Burn an odd number of words so we land mid-block.
        for _ in 0..37 {
            rng.next_u32();
        }
        let pos = rng.get_word_pos();
        assert_eq!(pos, 37);
        let tail: Vec<u64> = (0..10).map(|_| rng.next_u64()).collect();

        let mut replay = ChaCha8Rng::seed_from_u64(0x0FF1CE);
        replay.set_word_pos(pos);
        let tail2: Vec<u64> = (0..10).map(|_| replay.next_u64()).collect();
        assert_eq!(tail, tail2);
    }

    #[test]
    fn keystream_words_look_uniform() {
        // Cheap sanity: mean of 1e4 unit draws near 0.5.
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let n = 10_000;
        let mean: f64 = (0..n).map(|_| rng.gen::<f64>()).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.02, "mean {mean}");
    }

    #[test]
    fn array_draws_advance_word_pos() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let _: [f64; 6] = rng.gen();
        // 6 f64 draws = 12 u32 words.
        assert_eq!(rng.get_word_pos(), 12);
    }
}
