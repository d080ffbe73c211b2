//! Pins the ChaCha8 keystream: the first 64 words for three seeds and
//! a seek into the middle of a block. Any change to how the generator
//! computes or caches its blocks must reproduce these words exactly:
//! FemPIC's injection and its bit-exact restarts draw from this stream.

use rand::{RngCore, SeedableRng};
use rand_chacha::ChaCha8Rng;

#[rustfmt::skip]
const SEED_0: [u32; 64] = [
    0x2d8e_e5e8, 0xbf94_d133, 0xa6da_5a01, 0x3a73_8775, 0xc143_ee06, 0x3d46_ff10,
    0xe9f6_424f, 0x17c6_ab23, 0x2fb6_898b, 0x5ce2_479b, 0x86bf_f662, 0x0ae8_099f,
    0xc72f_90bd, 0x5f2f_09fd, 0x28e5_a01f, 0x95d5_3efa, 0x94ef_af48, 0x1131_e62b,
    0x17d7_a4e4, 0x9eec_7e55, 0xcd4c_18d1, 0xe553_e127, 0x3505_e613, 0xb9d5_51f1,
    0xd28d_82a2, 0x0a1f_fcc2, 0xf64a_441d, 0xfc92_16ba, 0x4b01_7931, 0xb3c6_1fd5,
    0x23eb_502b, 0xe857_b19d, 0x1bfc_d6d6, 0x5a51_2cb9, 0x4476_6985, 0x029e_3799,
    0x3c8b_61fe, 0xca64_10bd, 0xbfdc_08ce, 0xa2c1_439d, 0x9b51_bc00, 0x0b1b_48bc,
    0xf734_72d7, 0x8861_3706, 0x9362_d706, 0x7e63_aa45, 0xaee6_c4a7, 0x0463_0a15,
    0x4d47_0010, 0x2857_4510, 0x0575_729d, 0xe009_8b0d, 0x2eaf_fde3, 0xfe53_6d45,
    0xd9c1_5c54, 0x1195_a96b, 0xc31b_76c0, 0x2fd9_a984, 0x2d80_213e, 0x0093_931e,
    0xe951_1800, 0x306a_f4fc, 0x03f0_9f08, 0x3fc0_3cba,
];

#[rustfmt::skip]
const SEED_1: [u32; 64] = [
    0x48a8_b558, 0xef72_eaf4, 0x599a_55b3, 0x8a33_ba97, 0xe248_f1ee, 0x0c40_074e,
    0x5b66_0e10, 0xdbb1_6098, 0x22a8_ce78, 0x7285_8f91, 0x6ec9_d0a6, 0x1a91_5dfc,
    0xb682_3c71, 0xf285_32b6, 0xc283_1367, 0x42bd_7361, 0x5a62_5dcb, 0x7f11_6bb1,
    0xa2be_493e, 0x5ba3_5ac4, 0xcd12_893d, 0x523a_2de0, 0x3e6f_9097, 0x8089_abf0,
    0xb4ff_0ba3, 0x54ea_731b, 0xfb3b_d3ae, 0x8c4f_b67a, 0xdbb0_2d18, 0x8c65_dc52,
    0xb7d8_eaea, 0xffa6_39a3, 0x7756_14fb, 0xad4e_d273, 0x538b_0497, 0x4463_1cf0,
    0x3b92_9907, 0x8839_aafc, 0x2fda_71a1, 0xd8b5_a1a6, 0x87c2_f574, 0xaeb0_cc2a,
    0x004a_7d8e, 0xdfad_1284, 0x8bd6_1b25, 0x781a_d59f, 0xf779_1399, 0x7dc3_27d1,
    0xbb0d_b34b, 0x8876_138a, 0xcab5_bab0, 0x44b7_601e, 0xa64e_11b7, 0xbe06_1711,
    0xaf89_d3cc, 0xdc78_835b, 0x139d_4dbe, 0x910a_af8e, 0x310c_6a09, 0x67d8_9470,
    0xc274_fb0b, 0x9317_a498, 0xd08c_6434, 0x50e8_b5c5,
];

#[rustfmt::skip]
const SEED_DEAD: [u32; 64] = [
    0xf04a_f947, 0x4c23_a18b, 0x51dd_f61f, 0xbb62_be7a, 0xd7e1_6b20, 0x321e_7973,
    0x05c3_cf9c, 0x78a4_f5fc, 0x20ca_ae21, 0x68a8_1a17, 0x806b_dab5, 0x346b_c408,
    0xb8b2_5166, 0x2c0d_34e3, 0x2f92_9482, 0xd8b2_58bb, 0x76ab_0502, 0xd2f1_e76e,
    0xda28_96a1, 0xb71f_6c95, 0x9da9_8158, 0xbfbc_485e, 0xda9d_f8cb, 0xf3ab_450a,
    0x541d_3bec, 0x13c1_a8f6, 0xb8a2_118b, 0x3244_614b, 0x8321_969d, 0x28b5_3dc2,
    0x0e31_67ce, 0xbb11_e6c1, 0xa269_662f, 0x9eda_64c2, 0xf367_1d4b, 0x532a_ba23,
    0xf240_0c19, 0x290f_34d0, 0x823d_0412, 0x0677_ce13, 0x5918_d6f8, 0x0cfa_e5d6,
    0x76b5_abf2, 0x3443_ca12, 0x2d46_1175, 0xc3a5_38c4, 0x73bf_1f03, 0x7631_43c7,
    0xce63_0bed, 0x8753_5614, 0xb9e2_5aa7, 0xd3ae_096f, 0x4b2d_7d63, 0x786a_167f,
    0x1d4a_0427, 0x9eed_8052, 0x4f90_f517, 0x11d4_f4f3, 0xa02e_e747, 0x240c_a369,
    0x0327_dbdc, 0x4f02_daf7, 0x0f18_067c, 0x5c74_413f,
];

/// Seed 1 seeked to word 16005 (block 1000, word 5): eight `next_u32`
/// words, then four `next_u64` draws.
#[rustfmt::skip]
const MID_BLOCK_U32: [u32; 8] = [
    0x13df_86df, 0x8ced_41e0, 0xcbbb_8086, 0x57ae_c8d5, 0xc1d1_8008, 0x641c_275e,
    0x912a_be6e, 0x42fc_1dca,
];
#[rustfmt::skip]
const MID_BLOCK_U64: [u64; 4] = [
    0x69f435c1_e3d4c9c1, 0xdd33c913_51c0df80, 0x8b551285_f10d0bb7, 0xfc826922_281883d2,
];

#[test]
fn first_64_words_are_pinned() {
    for (seed, expect) in [(0u64, SEED_0), (1, SEED_1), (0xdead, SEED_DEAD)] {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let got: Vec<u32> = (0..64).map(|_| rng.next_u32()).collect();
        assert_eq!(got, expect, "seed {seed:#x}");
        assert_eq!(rng.get_word_pos(), 64);
    }
}

#[test]
fn mid_block_seek_is_pinned() {
    let mut rng = ChaCha8Rng::seed_from_u64(1);
    rng.set_word_pos(1000 * 16 + 5);
    let words: Vec<u32> = (0..8).map(|_| rng.next_u32()).collect();
    assert_eq!(words, MID_BLOCK_U32);
    // The u64 draws straddle the block boundary at word 16016.
    let wide: Vec<u64> = (0..4).map(|_| rng.next_u64()).collect();
    assert_eq!(wide, MID_BLOCK_U64);
    assert_eq!(rng.get_word_pos(), 1000 * 16 + 5 + 8 + 8);
}
